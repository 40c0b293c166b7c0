//! The pull read against the tree read, for every shape the derive emits
//! and every container impl that overrides `from_parser`, and the parser's
//! tap against `Value::to_json`.
//!
//! The documents are one hand-written document that holds what a pull
//! read must resolve as the tree read does — duplicate, unknown and
//! missing keys, escapes, non-canonical numbers — cut at every character
//! boundary and with every bit of every ASCII byte flipped, plus generated
//! trees.

use proptest::prelude::*;
use serde::{Deserialize, Parser, Serialize, Tap, Value};

#[derive(Debug, Serialize, Deserialize)]
enum Mode {
    Fast,
    Slow,
}

#[derive(Debug, Serialize, Deserialize)]
struct Id(u64);

#[derive(Debug, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, Serialize, Deserialize)]
struct Inner {
    id: Id,
    label: Option<String>,
    mode: Mode,
    weights: Vec<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Doc {
    name: String,
    count: u64,
    small: u8,
    delta: i32,
    ratio: f64,
    flag: bool,
    tag: Option<u16>,
    inner: Inner,
    items: Vec<Inner>,
    pair: Pair,
    triple: [u8; 3],
    tuple: (u16, bool),
    raw: Value,
}

/// Keys repeat (the first must win), `zz` is unknown, `tag` is missing,
/// numbers are spelled as the tree parser accepts but never writes.
const DOC: &str = r#"{"name":"déjà \/ vu 😀","count":01,"count":"second",
 "small":255,"delta":-0,"ratio":-.5,"flag":true,"zz":{"a":[1,2.,1E5]},
 "inner":{"id":7,"label":null,"mode":"Fast","weights":[1.,-0.0,2e-3],"mode":"Nope"},
 "items":[{"id":0,"mode":"Slow","weights":[]},{"id":18446744073709551615,"label":"x\ty",
 "mode":"Fast","weights":[0.1]}],"pair":[3,"p",true],"triple":[1,2,3],"tuple":[9,false],
 "raw":[null,{"k":-12},"s"],"name":"second"}"#;

/// The pull read of `text` with a buffer tap on, and what the tap holds.
fn pull<T: Deserialize>(text: &str) -> (Result<T, serde::Error>, String) {
    let mut p = Parser::new(text);
    p.tap(Tap::Buffer(Vec::new()));
    let read = T::from_parser(&mut p).and_then(|t| p.end().map(|()| t));
    let tapped = match p.untap() {
        Some(Tap::Buffer(bytes)) => String::from_utf8(bytes).expect("the tap emits UTF-8"),
        other => panic!("buffer tap came back as {other:?}"),
    };
    (read, tapped)
}

/// Both reads succeed with equal values or both fail with the tree read's
/// message, and a successful pull tapped `parse(text).to_json()`.
fn agree<T: Deserialize + Serialize>(text: &str) -> Result<(), String> {
    let tree = serde_json::parse(text);
    let from_tree = tree.clone().and_then(|v| T::from_value(&v));
    let (pulled, tapped) = pull::<T>(text);
    match (from_tree, pulled) {
        (Ok(a), Ok(b)) => {
            let (a, b) = (a.to_value().to_json(), b.to_value().to_json());
            if a != b {
                return Err(format!("tree read {a} but pull read {b}"));
            }
            let rendered = tree.expect("it decoded").to_json();
            if tapped != rendered {
                return Err(format!("tapped {tapped} but the tree renders {rendered}"));
            }
        }
        (Err(a), Err(_)) => {
            let b = serde_json::from_str::<T>(text).err().map(|e| e.0);
            if b.as_deref() != Some(a.0.as_str()) {
                return Err(format!("tree read fails with {a} but from_str with {b:?}"));
            }
        }
        (a, b) => {
            return Err(format!(
                "tree read ok: {}, pull read ok: {}",
                a.is_ok(),
                b.is_ok()
            ))
        }
    }
    Ok(())
}

fn agree_everywhere(text: &str) -> Result<(), String> {
    agree::<Doc>(text)?;
    agree::<Value>(text)?;
    agree::<Vec<Inner>>(text)?;
    agree::<Option<Pair>>(text)
}

#[test]
fn the_document_reads_alike_and_first_keys_win() {
    agree_everywhere(DOC).unwrap();
    let doc: Doc = serde_json::from_str(DOC).unwrap();
    assert_eq!((doc.name.as_str(), doc.count), ("déjà / vu 😀", 1));
    assert!(matches!(doc.inner.mode, Mode::Fast));
    assert_eq!(doc.tag, None);
    let (_, tapped) = pull::<Doc>(DOC);
    assert!(tapped.contains(r#""count":1,"count":"second""#), "{tapped}");
    assert!(tapped.contains(r#""ratio":-0.5,"flag""#), "{tapped}");
}

#[test]
fn every_truncation_reads_alike() {
    let pretty = serde_json::parse(DOC).unwrap().to_json_pretty();
    for text in [DOC, pretty.as_str()] {
        for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            agree_everywhere(&text[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        }
    }
}

#[test]
fn every_ascii_bit_flip_reads_alike() {
    let mut bytes = DOC.as_bytes().to_vec();
    for at in 0..bytes.len() {
        if !bytes[at].is_ascii() {
            continue;
        }
        for bit in 0..7 {
            bytes[at] ^= 1 << bit;
            let text = std::str::from_utf8(&bytes).expect("ASCII stays ASCII");
            agree_everywhere(text).unwrap_or_else(|e| panic!("bit {bit} of byte {at}: {e}"));
            bytes[at] ^= 1 << bit;
        }
    }
}

/// A generated tree of depth at most `depth`.
fn tree(rng: &mut proptest::runtime::TestRng, depth: u32) -> Value {
    let scalars = [
        Value::Null,
        Value::Bool(true),
        Value::U64(u64::MAX),
        Value::U64(0),
        Value::I64(i64::MIN),
        Value::F64(-0.0),
        Value::F64(1e21),
        Value::F64(0.1),
        Value::F64(f64::NAN),
        Value::Str("q\"\\\u{1}\u{7f}é😀".into()),
    ];
    match rng.gen_range(if depth == 0 { 10 } else { 13 }) {
        10 => Value::Array(
            (0..rng.gen_range(4))
                .map(|_| tree(rng, depth - 1))
                .collect(),
        ),
        11 | 12 => Value::Object(
            (0..rng.gen_range(4))
                .map(|i| {
                    (
                        ["a", "b\n", "a"][i as usize % 3].into(),
                        tree(rng, depth - 1),
                    )
                })
                .collect(),
        ),
        k => scalars[k as usize].clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 500, ..ProptestConfig::default() })]

    #[test]
    fn generated_trees_read_alike(seed in any::<u64>(), cut in any::<u64>()) {
        let mut rng = proptest::runtime::TestRng::seed_from(seed);
        let v = tree(&mut rng, 4);
        for text in [v.to_json(), v.to_json_pretty()] {
            let cut = (cut % (text.len() as u64 + 1)) as usize;
            let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
            for text in [&text[..], &text[..cut]] {
                prop_assert!(agree_everywhere(text).is_ok(), "{:?}", agree_everywhere(text));
            }
        }
    }
}
