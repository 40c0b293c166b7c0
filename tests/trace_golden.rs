//! Trace bytes are pinned across commits. `tile_determinism.rs` proves the
//! worker count never changes the event stream; this file proves the
//! stream itself does not drift: an FNV-1a digest of the `to_jsonl` and
//! `chrome_trace_json` output of
//!
//! * every design on a short 8x8 uniform-random run, keeping every event;
//! * the `interfere2` scenario (two applications, per-app traffic);
//! * a bounded ring (`RecordingSink::new(5000, 16)`) that has evicted most
//!   of a Buffered-4 run, so the bytes also pin which events a ring keeps.
//!
//! Any change to the event vocabulary, the emission order, the JSON
//! encoding, the Chrome exporter or the recorder's storage shows up here
//! as a digest diff.
//!
//! Re-blessing: when the trace changes *on purpose*, run with
//! `DXBAR_PRINT_HASHES=1` and paste the printed rows over `GOLDEN`.

use dxbar_noc::noc_sim::noc_trace::{chrome_trace_json, to_jsonl, RecordingSink};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};
use noc_scenario::{ScenarioRun, ScenarioSpec};

/// FNV-1a 64, the digest the other golden tables use.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The paper's 8x8 mesh with windows short enough for a debug build.
fn quick_8x8() -> SimConfig {
    SimConfig {
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 200,
        ..SimConfig::default()
    }
}

/// Digests of the JSONL and Chrome exports of a finished sink, and the
/// number of events it kept.
fn digest(sink: &RecordingSink) -> (u64, u64, usize) {
    (
        fnv1a64(to_jsonl(sink.recorder.iter()).as_bytes()),
        fnv1a64(chrome_trace_json(sink.recorder.iter()).as_bytes()),
        sink.recorder.len(),
    )
}

fn traced(design: Design, cfg: &SimConfig, sink: RecordingSink) -> RecordingSink {
    let plan = RunPlan::synthetic(design, cfg, Pattern::UniformRandom, 0.3);
    run(plan.traced(sink)).trace.expect("traced plan")
}

/// Every pinned run, labelled: one per design, the scenario, the ring.
fn runs() -> Vec<(String, (u64, u64, usize))> {
    let cfg = quick_8x8();
    let mut rows: Vec<(String, (u64, u64, usize))> = Design::ALL
        .iter()
        .map(|&d| {
            let sink = traced(d, &cfg, RecordingSink::new(0, 1));
            (d.name().to_string(), digest(&sink))
        })
        .collect();

    let spec = ScenarioSpec::resolve("interfere2", &cfg).expect("interfere2 resolves");
    let scenario = ScenarioRun::new(Design::DXbarDor, &cfg, &spec, 0.3).expect("valid point");
    let out = scenario.run_with(|plan| run(plan.traced(RecordingSink::new(0, 1))));
    rows.push((
        "interfere2".to_string(),
        digest(&out.trace.expect("traced plan")),
    ));

    let ring = traced(Design::Buffered4, &cfg, RecordingSink::new(5000, 16));
    assert!(ring.recorder.overflowed(), "the ring must have evicted");
    rows.push(("ring5000".to_string(), digest(&ring)));
    rows
}

/// `(label, jsonl digest, chrome digest, events kept)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, usize)] = &[
    ("Flit-Bless", 0x96d441f1bddfcd62, 0xe0410d337d8bd7d4, 130764),
    ("SCARAB", 0x7747c63efd5f0c06, 0x39ecad49c306d6af, 112835),
    ("Buffered 4", 0xd9dfc38360a7312b, 0xea2fe9b342256585, 192022),
    ("Buffered 8", 0x906ce60e1eae1bdd, 0xfbc5d47e0253a16c, 192126),
    ("DXbar DOR", 0x656f6a70413992e0, 0x499b18039ebc2d18, 79617),
    ("DXbar WF", 0x71af031713c90bb3, 0xe0b7a1a5372fc7c6, 80733),
    ("Unified Xbar DOR", 0xeb79a11c036bf5c7, 0x2bb0ed827626c7b4, 76663),
    ("Unified Xbar WF", 0x39c190f002287363, 0x4067e482735e8859, 77512),
    ("AFC", 0x573ba4c39d1067c5, 0xb20425860d1fcdad, 143227),
    ("DAMQ", 0xdc8a874b1a340ea5, 0xb4ee369b492177de, 191115),
    ("MinBD", 0x5d040796cafa017d, 0x37147b25ecebb4c2, 104018),
    ("interfere2", 0x8d0b41f4aca385db, 0x7fb934ffad74e618, 79681),
    ("ring5000", 0x5f995077a1729252, 0x5518092ea441eff9, 5000),
];

#[test]
fn trace_bytes_match_golden_table() {
    let rows = runs();
    if std::env::var("DXBAR_PRINT_HASHES").is_ok() {
        for (label, (jsonl, chrome, kept)) in &rows {
            println!("    ({label:?}, 0x{jsonl:016x}, 0x{chrome:016x}, {kept}),");
        }
        return;
    }
    assert_eq!(rows.len(), GOLDEN.len(), "one golden row per pinned run");
    for ((label, got), &(want_label, jsonl, chrome, kept)) in rows.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "golden rows out of order");
        assert_eq!(
            *got,
            (jsonl, chrome, kept),
            "{label}: trace bytes drifted (got jsonl 0x{:016x}, chrome 0x{:016x}, {} events)",
            got.0,
            got.1,
            got.2
        );
    }
}
