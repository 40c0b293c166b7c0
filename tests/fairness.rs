//! The fairness mechanism (Section II-A-2): without the priority-flip
//! counter, age-based arbitration lets edge-injected flits starve the
//! centre nodes' injection ports at high load. These tests measure the
//! per-source latency spread with the paper's threshold (4) against a
//! practically disabled counter.

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, RunResult, SimConfig};

fn run_with_threshold(threshold: u32) -> RunResult {
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        drain_cycles: 2_000,
        fairness_threshold: threshold,
        ..SimConfig::default()
    };
    // Past saturation: this is where starvation appears.
    let plan = RunPlan::synthetic(Design::DXbarDor, &cfg, Pattern::UniformRandom, 0.6);
    run(plan).result
}

#[test]
fn fairness_counter_bounds_source_starvation() {
    // Note: with bounded source queues the starvation effect is partially
    // absorbed at the sources, so the measurable gap is moderate — but it
    // must exist, in both worst-node latency and spread.
    let fair = run_with_threshold(4);
    let unfair = run_with_threshold(1_000_000);
    assert!(
        unfair.max_source_latency > 1.05 * fair.max_source_latency,
        "disabling fairness should starve someone: fair {:.0}, unfair {:.0}",
        fair.max_source_latency,
        unfair.max_source_latency
    );
    assert!(
        unfair.latency_spread > fair.latency_spread,
        "spread fair {:.1} vs unfair {:.1}",
        fair.latency_spread,
        unfair.latency_spread
    );
}

#[test]
fn fairness_does_not_cost_throughput() {
    // The paper tuned threshold = 4 as the best performance point; the flip
    // must not tank saturation throughput relative to no fairness at all.
    let fair = run_with_threshold(4);
    let unfair = run_with_threshold(1_000_000);
    assert!(
        fair.accepted_fraction > 0.9 * unfair.accepted_fraction,
        "fairness cost too much throughput: {:.3} vs {:.3}",
        fair.accepted_fraction,
        unfair.accepted_fraction
    );
}

#[test]
fn threshold_choice_is_a_mild_knob() {
    // The paper tuned the threshold to 4; in our implementation the flip is
    // cheap enough that throughput is insensitive across 1..16 (within a
    // few percent) — the knob trades fairness, not bandwidth. The ablations
    // binary sweeps this at full scale.
    let t1 = run_with_threshold(1);
    let t4 = run_with_threshold(4);
    let t16 = run_with_threshold(16);
    for (label, r) in [("1", &t1), ("16", &t16)] {
        let ratio = r.accepted_fraction / t4.accepted_fraction;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "threshold {label}: throughput ratio {ratio:.3} vs threshold 4"
        );
    }
    // But fairness improves monotonically with smaller thresholds.
    assert!(
        t1.max_source_latency <= t16.max_source_latency * 1.05,
        "t1 worst-node {:.0} vs t16 {:.0}",
        t1.max_source_latency,
        t16.max_source_latency
    );
}
