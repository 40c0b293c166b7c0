//! The paper's headline claims, asserted as integration tests (scaled-down
//! runs of the Fig. 5/6 experiments; the full-size regenerators live in
//! `crates/bench`).

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, RunResult, SimConfig};

fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 3_000,
        drain_cycles: 1_500,
        ..SimConfig::default()
    }
}

fn at(design: Design, load: f64) -> RunResult {
    run(RunPlan::synthetic(
        design,
        &cfg(),
        Pattern::UniformRandom,
        load,
    ))
    .result
}

/// Saturation throughput: run well past every design's saturation point and
/// compare accepted load.
fn saturation(design: Design) -> f64 {
    at(design, 0.6).accepted_fraction
}

#[test]
fn dxbar_dor_has_highest_saturation_throughput() {
    let dxbar = saturation(Design::DXbarDor);
    // Paper: saturation over 0.4 of capacity.
    assert!(dxbar > 0.38, "DXbar DOR saturation {dxbar}");
    // "40% improvement over buffered 4, Flit-Bless, and SCARAB."
    for rival in [Design::Buffered4, Design::FlitBless, Design::Scarab] {
        let r = saturation(rival);
        assert!(
            dxbar > 1.25 * r,
            "DXbar {dxbar:.3} should clearly beat {} {r:.3}",
            rival.name()
        );
    }
    // "20% improvement over buffered 8" — our idealized Buffered-8 baseline
    // narrows this (see EXPERIMENTS.md), but DXbar must stay ahead.
    let b8 = saturation(Design::Buffered8);
    assert!(dxbar > b8 * 1.02, "DXbar {dxbar:.3} vs Buffered 8 {b8:.3}");
}

#[test]
fn bufferless_designs_saturate_below_dxbar_wf() {
    let wf = saturation(Design::DXbarWf);
    let bless = saturation(Design::FlitBless);
    let scarab = saturation(Design::Scarab);
    // Paper: Flit-Bless and SCARAB saturate below 0.3; DXbar WF above both.
    assert!(bless < 0.32, "BLESS saturation {bless}");
    assert!(scarab < 0.32, "SCARAB saturation {scarab}");
    assert!(
        wf > bless && wf > scarab,
        "WF {wf} must beat bufferless designs"
    );
}

#[test]
fn unified_matches_dual_crossbar_performance() {
    // "A unified crossbar design that achieves identical functionality" —
    // throughput within a few percent of the dual-crossbar design.
    let dual = saturation(Design::DXbarDor);
    let unified = saturation(Design::UnifiedDor);
    let ratio = unified / dual;
    assert!((0.95..=1.05).contains(&ratio), "unified/dual = {ratio:.3}");
}

#[test]
fn dxbar_energy_stays_flat_with_load() {
    // Paper: "the energy consumption for DXbar hardly changes when the
    // offered network load increases".
    let low = at(Design::DXbarDor, 0.1).avg_packet_energy_nj;
    let high = at(Design::DXbarDor, 0.6).avg_packet_energy_nj;
    assert!(high < 1.25 * low, "DXbar energy rose {low:.3} -> {high:.3}");
}

#[test]
fn bufferless_energy_blows_up_past_saturation() {
    // Paper: Flit-Bless ~3X, SCARAB ~2X near/after saturation.
    let bless_low = at(Design::FlitBless, 0.1).avg_packet_energy_nj;
    let bless_high = at(Design::FlitBless, 0.6).avg_packet_energy_nj;
    assert!(
        bless_high > 1.6 * bless_low,
        "BLESS energy {bless_low:.3} -> {bless_high:.3}"
    );
    let scarab_low = at(Design::Scarab, 0.1).avg_packet_energy_nj;
    let scarab_high = at(Design::Scarab, 0.6).avg_packet_energy_nj;
    assert!(
        scarab_high > 1.3 * scarab_low,
        "SCARAB energy {scarab_low:.3} -> {scarab_high:.3}"
    );
    // And both exceed DXbar at high load.
    let dxbar_high = at(Design::DXbarDor, 0.6).avg_packet_energy_nj;
    assert!(bless_high > 1.5 * dxbar_high);
    assert!(scarab_high > 1.2 * dxbar_high);
}

#[test]
fn dxbar_saves_at_least_15_percent_energy_over_buffered() {
    for load in [0.2, 0.4] {
        let dxbar = at(Design::DXbarDor, load).avg_packet_energy_nj;
        let b4 = at(Design::Buffered4, load).avg_packet_energy_nj;
        let b8 = at(Design::Buffered8, load).avg_packet_energy_nj;
        assert!(
            dxbar < 0.85 * b4,
            "load {load}: DXbar {dxbar:.3} vs B4 {b4:.3}"
        );
        assert!(
            dxbar < 0.85 * b8,
            "load {load}: DXbar {dxbar:.3} vs B8 {b8:.3}"
        );
    }
}

#[test]
fn dxbar_zero_load_latency_matches_bufferless_pipeline() {
    // 2-stage pipeline: DXbar latency at low load must track Flit-BLESS and
    // clearly undercut the 3-stage buffered baseline.
    let dxbar = at(Design::DXbarDor, 0.05).avg_packet_latency;
    let bless = at(Design::FlitBless, 0.05).avg_packet_latency;
    let buffered = at(Design::Buffered4, 0.05).avg_packet_latency;
    assert!(
        (dxbar - bless).abs() < 2.0,
        "DXbar {dxbar:.1} vs BLESS {bless:.1}"
    );
    assert!(
        buffered > 1.3 * dxbar,
        "Buffered {buffered:.1} vs DXbar {dxbar:.1}"
    );
}

#[test]
fn only_a_fraction_of_flits_buffer_after_saturation() {
    // Paper: "the chance for the packets to be buffered while traversing
    // through a router is only 1/6 after saturation point".
    let r = at(Design::DXbarDor, 0.6);
    assert!(
        r.buffered_fraction > 0.02 && r.buffered_fraction < 0.40,
        "buffered fraction {:.3}",
        r.buffered_fraction
    );
    // And essentially nothing buffers at low load (bufferless behaviour).
    let low = at(Design::DXbarDor, 0.1);
    assert!(
        low.buffered_fraction < 0.05,
        "low-load buffering {:.3}",
        low.buffered_fraction
    );
}

#[test]
fn dxbar_never_deflects_or_drops() {
    let r = at(Design::DXbarDor, 0.6);
    assert_eq!(r.stats.events.deflections, 0);
    assert_eq!(r.stats.events.drops, 0);
}

/// Accepted fraction of `pattern` at offered load 0.35.
fn accepted(design: Design, c: &SimConfig, pattern: Pattern) -> f64 {
    run(RunPlan::synthetic(design, c, pattern, 0.35))
        .result
        .accepted_fraction
}

#[test]
fn wf_beats_dor_on_adaptive_friendly_patterns() {
    // Paper Fig. 7: "For BR, BT, MT, and PS, which all favor adaptive
    // routing algorithms, DXbar WF is very competitive" — the adaptivity
    // must pay off against deterministic DOR on those patterns.
    let c = cfg();
    for pattern in [
        Pattern::MatrixTranspose,
        Pattern::BitReversal,
        Pattern::PerfectShuffle,
        Pattern::Butterfly,
    ] {
        let wf = accepted(Design::DXbarWf, &c, pattern);
        let dor = accepted(Design::DXbarDor, &c, pattern);
        assert!(
            wf > dor,
            "{}: WF {wf:.3} should beat DOR {dor:.3}",
            pattern.abbrev()
        );
    }
}

#[test]
fn dor_wins_on_uniform_and_tornado() {
    // Paper Fig. 7: "for UR, NUR, CP, and TOR, DXbar DOR performs the best".
    let c = cfg();
    for pattern in [
        Pattern::UniformRandom,
        Pattern::Tornado,
        Pattern::Complement,
    ] {
        let wf = accepted(Design::DXbarWf, &c, pattern);
        let dor = accepted(Design::DXbarDor, &c, pattern);
        assert!(
            dor >= wf * 0.99,
            "{}: DOR {dor:.3} should not lose to WF {wf:.3}",
            pattern.abbrev()
        );
    }
}
