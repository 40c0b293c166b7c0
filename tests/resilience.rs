//! End-to-end resilience acceptance: transient soft errors and permanent
//! link faults under CRC + NI retransmission, checked by the full oracle
//! suite. The accounting identity — every unique injected flit is either
//! delivered exactly once or lands in the sanctioned loss count — must
//! hold at quiescence, and no corruption may escape detection.

use dxbar_noc::noc_resilience::{ResiliencePlan, TransientSpec};
use dxbar_noc::{run, Design, RunOutput, RunPlan, RunResult, SimConfig};
use noc_topology::Mesh;
use noc_traffic::patterns::Pattern;

/// Drain long enough for the worst ARQ give-up chain (~3k cycles at the
/// default retransmit config) so loss accounting is exact at quiescence.
fn resilient_cfg() -> SimConfig {
    SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 100,
        measure_cycles: 600,
        drain_cycles: 6_000,
        ..SimConfig::default()
    }
}

fn transient_plan(rate: f64, seed: u64) -> ResiliencePlan {
    ResiliencePlan::none().with_transients(TransientSpec {
        rate,
        drop_fraction: 0.5,
        seed,
    })
}

/// `unique injections == deliveries + sanctioned losses` over the whole run.
fn assert_accounting_identity(design: Design, r: &RunResult) {
    let e = &r.stats.events;
    let unique = e.injections - e.ni_retransmits - e.retransmissions;
    let delivered = e.ejections - e.crc_rejects - e.duplicates_suppressed;
    assert_eq!(
        unique,
        delivered + e.flits_lost,
        "{}: {} unique flits vs {} delivered + {} lost",
        design.name(),
        unique,
        delivered,
        e.flits_lost
    );
}

/// Uniform-random run under a resilience plan.
fn resilient(
    design: Design,
    cfg: &SimConfig,
    load: f64,
    plan: &ResiliencePlan,
    verify: bool,
) -> RunOutput {
    let run_plan = RunPlan::synthetic(design, cfg, Pattern::UniformRandom, load);
    run(run_plan.faults(plan).verified(verify))
}

/// Verified run at load 0.1 that must stay connected and clean.
fn verified_connected(design: Design, cfg: &SimConfig, plan: &ResiliencePlan) -> RunResult {
    let out = resilient(design, cfg, 0.1, plan, true)
        .clean()
        .unwrap_or_else(|e| panic!("{}: {e}", design.name()));
    assert!(out.reach.expect("resilience plan").is_fully_connected());
    out.result
}

#[test]
fn every_design_survives_transients_verified() {
    let cfg = resilient_cfg();
    let plan = transient_plan(1e-3, 0xC0FFEE);
    for design in Design::ALL {
        let result = verified_connected(design, &cfg, &plan);
        assert!(
            result.stats.events.transit_corruptions + result.stats.events.transit_losses > 0,
            "{}: the transient process never struck",
            design.name()
        );
        assert!(
            result.crc_rejects + result.ni_retransmits > 0,
            "{}: recovery machinery never engaged",
            design.name()
        );
        assert_accounting_identity(design, &result);
    }
}

#[test]
fn dead_link_with_recovery_is_verified_clean() {
    let cfg = resilient_cfg();
    let mesh = Mesh::new(cfg.width, cfg.height);
    // One dead channel + a mild transient process: the composed plan the
    // resilience_smoke campaign uses.
    let plan = ResiliencePlan::generate(&mesh, 0.0, 1, 5e-4, 50, 100, 7);
    assert!(plan.reachability(&mesh).is_fully_connected());
    for design in [Design::DXbarWf, Design::Buffered8, Design::FlitBless] {
        let result = verified_connected(design, &cfg, &plan);
        assert!(result.accepted_packets > 0, "{}", design.name());
        assert_accounting_identity(design, &result);
    }
}

#[test]
fn partitioned_plan_is_reported_not_hidden() {
    // Hand-build a plan that amputates corner (0,0) of a 4x4 mesh: both of
    // its channels die. The reachability pre-check must name the cut.
    use dxbar_noc::noc_resilience::LinkFault;
    use noc_core::types::{Direction, NodeId};
    let mesh = Mesh::new(4, 4);
    let plan = ResiliencePlan::none().with_link_faults(vec![
        LinkFault {
            node: NodeId(0),
            dir: Direction::East,
            onset: 0,
        },
        LinkFault {
            node: NodeId(0),
            dir: Direction::South,
            onset: 0,
        },
    ]);
    let reach = plan.reachability(&mesh);
    assert_eq!(reach.components, 2);
    assert_eq!(reach.partitioned_pairs.len(), 15);
    assert!(reach
        .partitioned_pairs
        .iter()
        .all(|&(a, b)| a == NodeId(0) || b == NodeId(0)));

    // The run surfaces the same report alongside the (degraded) result.
    let cfg = resilient_cfg();
    let RunOutput { result, reach, .. } = resilient(Design::DXbarDor, &cfg, 0.05, &plan, false);
    assert!(!reach.expect("resilience plan").is_fully_connected());
    // Traffic to/from the cut corner burns its retry budget and is counted.
    assert!(result.lost_flits > 0);
    assert!(
        result.accepted_packets > 0,
        "the rest of the mesh still runs"
    );
}

#[test]
fn degradation_is_monotone_in_fault_rate_for_loss() {
    // Loss and recovery activity must grow with the transient rate; this
    // pins the Poisson process to the knob, not just to the seed.
    let cfg = resilient_cfg();
    let activity = |rate: f64| -> u64 {
        let r = resilient(
            Design::DXbarDor,
            &cfg,
            0.2,
            &transient_plan(rate, 42),
            false,
        )
        .result;
        r.stats.events.transit_corruptions + r.stats.events.transit_losses
    };
    let low = activity(1e-4);
    let high = activity(5e-3);
    assert!(
        high > 2 * low.max(1),
        "fault activity must scale with the rate: {low} at 1e-4 vs {high} at 5e-3"
    );
}
