//! The pull read (`Deserialize::from_parser`) against the tree read (`parse`
//! then `from_value`) for every type the cache and the campaign files
//! store, on generated documents and on damaged or oddly spelled ones.
//! Either both reads succeed with equal values, or both fail and
//! `serde_json::from_str` reports the tree read's message; and whenever the
//! text parses, the parser's tap holds exactly `parse(text).to_json()`.

mod common;

use common::{damage, edit, spell, Edit, Gen};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, RunResult, SimConfig};
use noc_campaign::{CampaignManifest, CampaignSpec, PointRecord, QuarantinedPoint, VerifyBlock};
use proptest::prelude::*;
use serde::{Deserialize, Parser, Serialize, Tap, Value};

/// A document for `value`: written as stored, or edited, respelled and
/// damaged, one step each at random.
fn document(g: &mut Gen, value: &Value) -> String {
    let mut v = value.clone();
    if g.one_in(2) {
        let e = g.pick(&Edit::ALL);
        edit(g, &mut v, e);
    }
    let text = if g.one_in(4) {
        v.to_json_pretty()
    } else {
        spell(g, &v)
    };
    if g.one_in(3) {
        damage(g, &text)
    } else {
        text
    }
}

/// The pull read of `text`, with a buffer tap on, and what the tap holds.
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

fn agree<T: Deserialize + Serialize>(text: &str) -> Result<(), TestCaseError> {
    let tree = serde_json::parse(text);
    let from_tree = tree.clone().and_then(|v| T::from_value(&v));
    let (pulled, tapped) = pull::<T>(text);
    match (&from_tree, &pulled) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.to_value().to_json(), b.to_value().to_json());
            prop_assert_eq!(&tapped, &tree.as_ref().expect("it decoded").to_json());
        }
        (Err(a), Err(_)) => {
            let e = serde_json::from_str::<T>(text).err().map(|e| e.0);
            prop_assert_eq!(e.as_deref(), Some(a.0.as_str()));
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "tree read {:?} but pull read {:?} of {text:?}",
                a.as_ref().map(|_| "ok"),
                b.as_ref().map(|_| "ok")
            )))
        }
    }
    // The tap renders whatever parses, read as a tree or skipped.
    if let Ok(v) = &tree {
        let (read, tapped) = pull::<Value>(text);
        prop_assert!(read.is_ok());
        prop_assert_eq!(&tapped, &v.to_json());
    }
    Ok(())
}

fn manifest(g: &mut Gen) -> CampaignManifest {
    CampaignManifest {
        campaign: g.string(),
        spec_hash: g.string(),
        code_version: g.string(),
        jobs: g.below(9),
        total_points: g.below(500),
        completed: g.below(500),
        failed: g.below(3),
        cache_hits: g.below(500),
        cache_misses: g.below(500),
        wall_ms: g.u64(),
        verify: g.one_in(2).then(|| VerifyBlock {
            enabled: g.one_in(2),
            verified_points: g.below(50),
            violations: g.u64(),
            checks: g.u64(),
        }),
        quarantined: (0..g.below(3))
            .map(|_| QuarantinedPoint {
                key: g.string(),
                repro: g.string(),
                reason: g.string(),
                attempts: g.below(5) as u32,
            })
            .collect(),
        points: (0..g.below(4))
            .map(|_| PointRecord {
                key: g.string(),
                group: g.string(),
                design: g.string(),
                workload: g.string(),
                fault_fraction: g.f64(),
                transient_rate: g.f64(),
                link_fault_count: g.below(9),
                seed: g.u64(),
                status: g.pick(&["ok", "failed"]).into(),
                reason: g.string(),
                panics: (0..g.below(3)).map(|_| g.string()).collect(),
                repro: g.string(),
                cache_hit: g.one_in(2),
                deduped: g.one_in(2),
                wall_ms: g.u64(),
                attempts: g.below(5) as u32,
                violations: g.u64(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn run_results_read_alike(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let v = g.run_result().to_value();
        agree::<RunResult>(&document(&mut g, &v))?;
    }

    #[test]
    fn campaign_files_read_alike(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let v = g.campaign_spec().to_value();
        agree::<CampaignSpec>(&document(&mut g, &v))?;
        let v = manifest(&mut g).to_value();
        agree::<CampaignManifest>(&document(&mut g, &v))?;
        let v = g.sim_config().to_value();
        agree::<SimConfig>(&document(&mut g, &v))?;
    }

    #[test]
    fn names_read_alike(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let design = g.pick(&Design::ALL).to_value();
        agree::<Design>(&document(&mut g, &design))?;
        agree::<Option<Design>>(&document(&mut g, &design))?;
        let patterns = Value::Array((0..g.below(4)).map(|_| g.pick(&Pattern::ALL).to_value()).collect());
        agree::<Vec<Pattern>>(&document(&mut g, &patterns))?;
        // Any document at all, read as each of the shapes.
        let v = g.value(3);
        let text = document(&mut g, &v);
        agree::<Design>(&text)?;
        agree::<Vec<Pattern>>(&text)?;
        agree::<SimConfig>(&text)?;
        agree::<(u8, Option<String>)>(&text)?;
        agree::<[f64; 2]>(&text)?;
    }
}

/// Hand-picked spellings the generators reach only by chance.
#[test]
fn known_spellings_read_alike() {
    let mut base = serde_json::to_string(&SimConfig::default()).unwrap();
    base.pop();
    for tail in [
        r#","width":01}"#,
        r#","width":1.}"#,
        r#","width":-0}"#,
        r#","width":1E1}"#,
        r#","seed":-.5}"#,
        r#","width":3,"width":"x"}"#,
        r#","topology":"torus"}"#,
        r#","extra":"😀 \ud83d"}"#,
        r#","width":65536}"#,
        "}",
    ] {
        let text = format!("{base}{tail}");
        agree::<SimConfig>(&text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
    }
    let first_wins: SimConfig =
        serde_json::from_str(&format!(r#"{{"width":3,"width":"x",{}}}"#, &base[1..])).unwrap();
    assert_eq!(first_wins.width, 3);
}
