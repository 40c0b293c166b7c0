//! Cache entries under generated damage. Each case stores a generated
//! `RunResult`, damages the entry one way, and loads it through
//! `ResultCache::load` and through the reference below: the load as it was
//! written when entries were judged on a parsed tree.
//!
//! Both must agree on the outcome — a hit with the same value, a quiet
//! miss, or a miss detected exactly once. The one sanctioned difference:
//! an entry that is no longer UTF-8 is a detected miss, where the
//! reference missed it silently.

mod common;

use common::{edit, points, scratch, Edit, Gen};
use dxbar_noc::RunResult;
use noc_campaign::io::{IoFault, IoOp, IoPolicy};
use noc_campaign::{fnv1a64, PointSpec, ResultCache, CODE_VERSION};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts the entries the cache reports as damaged.
#[derive(Debug, Default)]
struct Detections(AtomicUsize);

impl IoPolicy for Detections {
    fn inject(&self, _op: IoOp, _path: &Path, _attempt: u32) -> Option<IoFault> {
        None
    }
    fn on_detected(&self, _path: &Path) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// What a load returned: the result (compared as canonical JSON, which
/// keeps NaN comparable) and how often the entry was reported damaged.
type Outcome = (Option<String>, usize);

/// The reference: the tree-based load body, with the policy hook counted.
fn reference_load(path: &Path, salt: &str, point: &PointSpec) -> Outcome {
    let mut detected = 0;
    let result = (|| {
        let text = std::fs::read_to_string(path).ok()?;
        let Ok(v) = serde_json::parse(&text) else {
            detected += 1;
            return None;
        };
        if v.field("salt").as_str() != Some(salt) {
            return None;
        }
        let result = v.field("result");
        let sum = format!("{:016x}", fnv1a64(result.to_json().as_bytes()));
        if v.field("sum").as_str() != Some(sum.as_str()) {
            detected += 1;
            return None;
        }
        if *v.field("point") != point.cache_identity() {
            detected += 1;
            return None;
        }
        match RunResult::from_value(result) {
            Ok(r) => Some(r),
            Err(_) => {
                detected += 1;
                None
            }
        }
    })();
    (result.map(|r| r.to_value().to_json()), detected)
}

fn load(dir: &Path, point: &PointSpec) -> Outcome {
    let det = Arc::new(Detections::default());
    let cache = ResultCache::open_with(dir, CODE_VERSION, det.clone()).expect("open cache");
    let result = cache.load(point);
    (
        result.map(|r| r.to_value().to_json()),
        det.0.load(Ordering::Relaxed),
    )
}

/// One way to damage a stored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    BitFlip,
    Truncate,
    Key(Edit),
    ForeignSalt,
    OtherPoint,
}

fn damage_entry(g: &mut Gen, path: &PathBuf, how: Damage, other: &PointSpec) {
    let mut bytes = std::fs::read(path).expect("read entry");
    let tree = |bytes: &[u8]| serde_json::parse(std::str::from_utf8(bytes).unwrap()).unwrap();
    // Entries are objects: salt, point, sum, result.
    let set = |v: &mut Value, at: usize, to: Value| match v {
        Value::Object(pairs) => pairs[at].1 = to,
        _ => unreachable!("entries are objects"),
    };
    match how {
        Damage::BitFlip => {
            let at = g.below(bytes.len());
            bytes[at] ^= 1 << g.below(8);
        }
        Damage::Truncate => bytes.truncate(g.below(bytes.len())),
        Damage::Key(e) => {
            // The entry's own keys, or those of an object inside it.
            let mut v = tree(&bytes);
            edit(g, &mut v, e);
            bytes = v.to_json_pretty().into_bytes();
        }
        Damage::ForeignSalt => {
            let mut v = tree(&bytes);
            set(&mut v, 0, Value::Str(format!("{CODE_VERSION}-old")));
            bytes = v.to_json_pretty().into_bytes();
        }
        Damage::OtherPoint => {
            let mut v = tree(&bytes);
            set(&mut v, 1, other.cache_identity());
            bytes = v.to_json_pretty().into_bytes();
        }
    }
    std::fs::write(path, bytes).expect("write damaged entry");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn damaged_entries_load_as_the_reference_does(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let dir = scratch("damage");
        let points = points();
        let (point, other) = (&points[0], &points[1]);
        let result = g.run_result();
        let stored = result.to_value().to_json();
        ResultCache::open(&dir, CODE_VERSION).unwrap().store(point, &result);
        let path = dir.join(format!("{}.json", point.cache_key(CODE_VERSION)));

        prop_assert_eq!(load(&dir, point), (Some(stored.clone()), 0), "an intact entry hits");
        let how = match g.below(5) {
            0 => Damage::BitFlip,
            1 => Damage::Truncate,
            2 => Damage::Key(g.pick(&Edit::ALL)),
            3 => Damage::ForeignSalt,
            _ => Damage::OtherPoint,
        };
        damage_entry(&mut g, &path, how, other);

        let got = load(&dir, point);
        let want = reference_load(&path, CODE_VERSION, point);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            prop_assert_eq!(want, (None, 0), "the reference misses bytes it cannot read");
            prop_assert_eq!(&got, &(None, 1), "{:?}", how);
            return Ok(());
        };
        prop_assert_eq!(&got, &want, "{:?}", how);
        let salt = serde_json::parse(text).map(|v| v.field("salt").clone());
        match &got {
            (Some(hit), 0) => prop_assert_eq!(hit, &stored, "a hit is the stored value"),
            // Quiet only when the entry parses and names another salt.
            (None, 0) => prop_assert!(salt.is_ok_and(|s| s != CODE_VERSION), "{:?}", how),
            (None, 1) => prop_assert!(how != Damage::ForeignSalt, "a foreign salt is quiet"),
            _ => prop_assert!(false, "{:?} loaded as {:?}", how, got),
        }
    }
}

/// The byte flip `IoFault::BitFlip` makes one time in eight: bit 7 of a
/// byte in the checksummed half, which leaves the entry no longer UTF-8.
#[test]
fn a_bit_7_flip_is_detected_not_a_silent_miss() {
    let dir = scratch("bit7");
    let points = points();
    let point = &points[0];
    let result = Gen::new(7).run_result();
    ResultCache::open(&dir, CODE_VERSION)
        .unwrap()
        .store(point, &result);
    let path = dir.join(format!("{}.json", point.cache_key(CODE_VERSION)));
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x80;
    std::fs::write(&path, &bytes).unwrap();
    assert!(std::str::from_utf8(&bytes).is_err());
    assert_eq!(reference_load(&path, CODE_VERSION, point), (None, 0));
    assert_eq!(load(&dir, point), (None, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
