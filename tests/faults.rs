//! Fault-tolerance integration: DXbar must keep delivering every packet
//! even when every router has a broken crossbar, and the degradation shape
//! must match Section III-E (DOR graceful, WF worse, power up).

use dxbar_noc::noc_faults::{CrossbarId, FaultPlan};
use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_sim::runner::RunMode;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::trace::{Trace, TraceReplay};
use dxbar_noc::{run, Design, RunPlan, RunResult, SimConfig};

/// Replay a captured trace closed-loop under a crossbar fault plan.
fn replay_to_completion(
    design: Design,
    cfg: &SimConfig,
    trace: Trace,
    faults: &FaultPlan,
) -> RunResult {
    let mut replay = TraceReplay::new(trace);
    let mode = RunMode::ClosedLoop {
        max_cycles: 200_000,
    };
    let faults = ResiliencePlan::none().with_crossbar(faults.clone());
    run(RunPlan::model(design, cfg, &mut replay, mode).faults(&faults)).result
}

#[test]
fn full_fault_coverage_still_delivers_everything() {
    // 100 % faults = one crossbar broken in every router; faults manifest
    // at cycle 50, mid-traffic, so the undetected window is exercised too.
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(cfg.width, cfg.height);
    for design in [Design::DXbarDor, Design::DXbarWf] {
        let plan = FaultPlan::generate(&mesh, 1.0, 50, 60, 123);
        assert_eq!(plan.count(), 16);
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.1, 1, 9);
        let trace = Trace::capture(&mut model, 400);
        let packets = trace.len() as u64;
        let res = replay_to_completion(design, &cfg, trace, &plan);
        assert!(res.completed, "{}: drained with 100% faults", design.name());
        assert_eq!(
            res.accepted_packets,
            packets,
            "{}: packet loss",
            design.name()
        );
    }
}

#[test]
fn primary_only_and_secondary_only_fault_plans_deliver() {
    // Force every fault onto one specific crossbar type by regenerating
    // until the plan matches (seeded search keeps this deterministic).
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(cfg.width, cfg.height);
    for target in [CrossbarId::Primary, CrossbarId::Secondary] {
        // Hand-made plan: the same crossbar broken in every router.
        let plan = FaultPlan::from_faults(
            &mesh,
            mesh.nodes()
                .map(|router| dxbar_noc::noc_faults::RouterFault {
                    router,
                    target,
                    onset: 10,
                }),
        );
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.05, 1, 4);
        let trace = Trace::capture(&mut model, 200);
        let packets = trace.len() as u64;
        let res = replay_to_completion(Design::DXbarDor, &cfg, trace, &plan);
        assert!(res.completed, "{target:?} faults: drained");
        assert_eq!(res.accepted_packets, packets, "{target:?} faults: loss");
    }
}

/// Uniform-random run under a crossbar fault plan.
fn ur_with_faults(design: Design, cfg: &SimConfig, load: f64, faults: &FaultPlan) -> RunResult {
    let plan = RunPlan::synthetic(design, cfg, Pattern::UniformRandom, load);
    run(plan.faults(&ResiliencePlan::none().with_crossbar(faults.clone()))).result
}

#[test]
fn dor_degrades_gracefully_wf_suffers_more() {
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        drain_cycles: 2_000,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(cfg.width, cfg.height);
    let load = 0.35;
    let healthy = FaultPlan::none(&mesh);
    let faulty = FaultPlan::generate(
        &mesh,
        1.0,
        cfg.warmup_cycles / 2,
        cfg.warmup_cycles,
        cfg.seed,
    );

    let at = |design, faults| ur_with_faults(design, &cfg, load, faults);
    let dor_ok = at(Design::DXbarDor, &healthy);
    let dor_bad = at(Design::DXbarDor, &faulty);
    let wf_ok = at(Design::DXbarWf, &healthy);
    let wf_bad = at(Design::DXbarWf, &faulty);

    let dor_drop = 1.0 - dor_bad.accepted_fraction / dor_ok.accepted_fraction;
    let wf_drop = 1.0 - wf_bad.accepted_fraction / wf_ok.accepted_fraction;
    // Paper Fig. 11: DOR degradation < 10 %, WF up to ~33 %.
    assert!(dor_drop < 0.10, "DOR dropped {dor_drop:.2}");
    assert!(
        wf_drop > dor_drop,
        "WF ({wf_drop:.2}) should suffer more than DOR ({dor_drop:.2})"
    );

    // Paper Fig. 12: power rises with faults (more buffered traversals).
    assert!(
        dor_bad.avg_packet_energy_nj > dor_ok.avg_packet_energy_nj,
        "faulty energy {} <= healthy {}",
        dor_bad.avg_packet_energy_nj,
        dor_ok.avg_packet_energy_nj
    );
    assert!(
        dor_bad.buffered_fraction > dor_ok.buffered_fraction,
        "faults must push more flits through the buffers"
    );
}

#[test]
fn fault_free_plan_changes_nothing() {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 300,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(cfg.width, cfg.height);
    let a = ur_with_faults(Design::DXbarDor, &cfg, 0.2, &FaultPlan::none(&mesh));
    let generated = FaultPlan::generate(&mesh, 0.0, 0, 1, 99);
    let b = ur_with_faults(Design::DXbarDor, &cfg, 0.2, &generated);
    assert_eq!(a.accepted_packets, b.accepted_packets);
    assert_eq!(
        a.stats.events.link_traversals,
        b.stats.events.link_traversals
    );
}
