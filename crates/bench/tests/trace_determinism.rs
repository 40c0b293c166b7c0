//! End-to-end properties of the tracing subsystem on real simulations:
//! byte-level determinism of the exported JSONL (sequentially and under
//! rayon), serde round-trips, flit conservation, and agreement between the
//! exact trace-derived percentiles and `LatencyStats::approx_percentile`.

use dxbar_noc::noc_core::stats::LatencyStats;
use dxbar_noc::noc_sim::noc_trace::{
    chrome_trace, from_jsonl, percentile_of_sorted, to_jsonl, RecordingSink, TraceEvent,
};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};
use rayon::prelude::*;

fn small_cfg() -> SimConfig {
    SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 200,
        ..SimConfig::default()
    }
}

fn traced_jsonl(design: Design, load: f64) -> (String, Vec<TraceEvent>, RecordingSink) {
    let cfg = small_cfg();
    let sink = RecordingSink::new(0, 1);
    let plan = RunPlan::synthetic(design, &cfg, Pattern::UniformRandom, load);
    let sink = run(plan.traced(sink)).trace.expect("traced plan");
    let events: Vec<TraceEvent> = sink.recorder.iter().collect();
    (to_jsonl(&events), events, sink)
}

#[test]
fn same_seed_produces_byte_identical_jsonl() {
    let (a, _, _) = traced_jsonl(Design::DXbarDor, 0.3);
    let (b, _, _) = traced_jsonl(Design::DXbarDor, 0.3);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed traces must be byte-identical");
}

#[test]
fn jsonl_deterministic_under_rayon() {
    // The engine and traffic PRNGs are owned per run, so runs scheduled on
    // worker threads must reproduce the sequential bytes exactly.
    let designs = [Design::DXbarDor, Design::FlitBless, Design::Buffered8];
    let parallel: Vec<String> = designs
        .par_iter()
        .map(|&d| traced_jsonl(d, 0.25).0)
        .collect();
    let sequential: Vec<String> = designs.iter().map(|&d| traced_jsonl(d, 0.25).0).collect();
    assert_eq!(parallel, sequential);
}

#[test]
fn jsonl_roundtrip_preserves_events() {
    let (text, events, _) = traced_jsonl(Design::DXbarDor, 0.3);
    let back = from_jsonl(&text).expect("parse back");
    assert_eq!(events, back);
}

#[test]
fn chrome_trace_is_well_formed() {
    let (_, events, sink) = traced_jsonl(Design::DXbarDor, 0.3);
    let v = chrome_trace(&events);
    let slices = v
        .get("traceEvents")
        .and_then(|t| t.as_array())
        .expect("traceEvents array");
    // One complete slice per finished lifetime, plus instant events. The
    // sink saw the run from cycle 0, so every terminal event closed one.
    let finished = sink.lifetimes.ejected() + sink.lifetimes.dropped();
    assert!(slices.len() as u64 >= finished);
    assert!(finished > 0);
}

#[test]
fn every_injected_flit_terminates_exactly_once() {
    // Conservation on a design that drops (SCARAB) and ones that never do.
    for design in [Design::Scarab, Design::DXbarDor, Design::Buffered8] {
        let (_, events, sink) = traced_jsonl(design, 0.4);
        let l = &sink.lifetimes;
        assert_eq!(
            l.injected(),
            l.ejected() + l.dropped() + l.still_open() as u64,
            "{design:?}: inject/terminal mismatch"
        );
        // An open-loop run drains to empty, so nothing may stay in flight
        // and every Inject event has exactly one matching terminal event.
        assert_eq!(l.still_open(), 0, "{design:?}: flits left in flight");
        let injects = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Inject { .. }))
            .count() as u64;
        let terminals = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Eject { .. } | TraceEvent::Drop { .. }))
            .count() as u64;
        assert_eq!(injects, l.injected());
        // SCARAB re-injects retransmitted flits, so terminals may exceed
        // distinct flits but must equal inject events exactly.
        assert_eq!(terminals, injects, "{design:?}: unbalanced terminals");
    }
}

#[test]
fn approx_percentile_agrees_with_exact_within_one_sub_bucket() {
    // Feed the trace's exact latency population into the histogram and
    // compare: the approximation must sit inside (or at the clamped edge
    // of) the sub-bucket that contains the exact nearest-rank percentile.
    let (_, _, sink) = traced_jsonl(Design::DXbarDor, 0.5);
    let exact_sorted = sink.lifetimes.sorted_latencies();
    assert!(exact_sorted.len() > 100, "need a real population");
    let mut hist = LatencyStats::default();
    for &v in &exact_sorted {
        hist.record(v);
    }
    for q in [0.5, 0.9, 0.99] {
        let exact = percentile_of_sorted(&exact_sorted, q * 100.0).unwrap();
        let approx = hist.approx_percentile(q);
        let (lo, hi) = LatencyStats::bucket_bounds(LatencyStats::bucket_index(exact));
        assert!(
            approx >= lo && approx <= hi.min(hist.max),
            "q={q}: approx {approx} outside exact {exact}'s sub-bucket [{lo}, {hi}]"
        );
    }
}
