//! End-to-end delivery guarantees: every design must deliver every packet
//! of a finite workload — no loss, no duplication — and drain completely.

use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_power::energy::EnergyModel;
use dxbar_noc::noc_sim::runner::{run, RunMode};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::trace::{Trace, TraceReplay};
use dxbar_noc::{Design, SimConfig};

fn capture_trace(
    pattern: Pattern,
    mesh: Mesh,
    rate: f64,
    len: u8,
    cycles: u64,
    seed: u64,
) -> Trace {
    let mut model = SyntheticTraffic::new(pattern, mesh, rate, len, seed);
    Trace::capture(&mut model, cycles)
}

fn closed_loop_cfg(width: u16, height: u16) -> SimConfig {
    SimConfig {
        width,
        height,
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    }
}

fn assert_delivers_all(design: Design, pattern: Pattern, rate: f64, packet_len: u8, seed: u64) {
    let cfg = closed_loop_cfg(6, 6);
    let mesh = Mesh::new(cfg.width, cfg.height);
    let trace = capture_trace(pattern, mesh, rate, packet_len, 300, seed);
    let flits: u64 = trace.packets.iter().map(|p| p.len as u64).sum();
    let packets = trace.len() as u64;
    assert!(packets > 50, "trace too small to be meaningful");

    let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
    let mut model = TraceReplay::new(trace);
    let res = run(
        &mut net,
        &mut model,
        RunMode::ClosedLoop {
            max_cycles: 500_000,
        },
        &EnergyModel::default(),
    );

    assert!(res.completed, "{}: network never drained", design.name());
    assert_eq!(
        res.stats.events.ejections,
        flits,
        "{}: flits lost or duplicated",
        design.name()
    );
    assert_eq!(
        res.accepted_packets,
        packets,
        "{}: packets lost",
        design.name()
    );
    assert_eq!(
        net.reassembly_duplicates(),
        0,
        "{}: duplicate flits",
        design.name()
    );
    assert!(net.is_quiescent());
}

#[test]
fn all_designs_deliver_uniform_random() {
    for design in Design::ALL {
        assert_delivers_all(design, Pattern::UniformRandom, 0.15, 1, 42);
    }
}

#[test]
fn all_designs_deliver_adverse_tornado() {
    for design in Design::ALL {
        assert_delivers_all(design, Pattern::Tornado, 0.2, 1, 7);
    }
}

#[test]
fn all_designs_deliver_multiflit_packets() {
    // 4-flit packets with every-flit-head routing: out-of-order arrival must
    // still reassemble exactly once. (Transpose works on the 6x6 mesh;
    // bit-complement would need a power-of-two node count.)
    for design in Design::ALL {
        assert_delivers_all(design, Pattern::MatrixTranspose, 0.05, 4, 9);
    }
}

#[test]
fn dxbar_delivers_under_heavy_transpose() {
    // Transpose concentrates traffic on the diagonal; run hotter.
    assert_delivers_all(Design::DXbarDor, Pattern::MatrixTranspose, 0.5, 1, 3);
    assert_delivers_all(Design::DXbarWf, Pattern::MatrixTranspose, 0.5, 1, 3);
}

#[test]
fn scarab_retransmissions_preserve_exactly_once_delivery() {
    // High load forces drops; the NACK/retransmit path must not duplicate.
    let cfg = closed_loop_cfg(6, 6);
    let mesh = Mesh::new(cfg.width, cfg.height);
    let trace = capture_trace(Pattern::UniformRandom, mesh, 0.5, 1, 200, 5);
    let packets = trace.len() as u64;
    let mut net = Design::Scarab.build(&cfg, &FaultPlan::none(&mesh));
    let mut model = TraceReplay::new(trace);
    let res = run(
        &mut net,
        &mut model,
        RunMode::ClosedLoop {
            max_cycles: 500_000,
        },
        &EnergyModel::default(),
    );
    assert!(res.completed);
    assert!(res.stats.events.drops > 0, "load too low to exercise drops");
    assert_eq!(res.accepted_packets, packets);
    assert_eq!(net.reassembly_duplicates(), 0);
}

#[test]
fn bless_deflections_preserve_delivery() {
    let cfg = closed_loop_cfg(6, 6);
    let mesh = Mesh::new(cfg.width, cfg.height);
    let trace = capture_trace(Pattern::UniformRandom, mesh, 0.5, 1, 200, 6);
    let packets = trace.len() as u64;
    let mut net = Design::FlitBless.build(&cfg, &FaultPlan::none(&mesh));
    let mut model = TraceReplay::new(trace);
    let res = run(
        &mut net,
        &mut model,
        RunMode::ClosedLoop {
            max_cycles: 500_000,
        },
        &EnergyModel::default(),
    );
    assert!(res.completed);
    assert!(
        res.stats.events.deflections > 0,
        "load too low to exercise deflection"
    );
    assert_eq!(res.accepted_packets, packets);
}

/// The negative half of the stalled check: at full offered load on the
/// paper's 8x8 mesh every design still delivers, so none is stalled.
#[test]
fn no_design_stalls_on_an_8x8_mesh_at_full_load() {
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 400,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    for design in Design::ALL {
        let plan = dxbar_noc::RunPlan::synthetic(design, &cfg, Pattern::UniformRandom, 1.0);
        let r = dxbar_noc::run(plan).result;
        assert!(
            r.stats.offered_flits > 0,
            "{}: nothing offered",
            design.name()
        );
        assert!(!r.stalled(), "{}: {:?}", design.name(), r.stall_reason());
    }
}
