//! Zero-load timing anchors: with a single packet in an otherwise empty
//! network, per-hop latency must equal the pipeline depth the paper gives —
//! 2 cycles/hop for the look-ahead designs (SA/ST + LT), 3 cycles/hop for
//! the 3-stage buffered baseline — and must be exactly linear in distance.

use dxbar_noc::noc_sim::runner::RunMode;
use dxbar_noc::noc_traffic::trace::{Trace, TraceReplay};
use dxbar_noc::{run, Design, RunPlan, SimConfig};
use noc_core::flit::{FlitKind, PacketDesc, PacketId};
use noc_core::types::NodeId;

/// Deliver one packet from node 0 across `distance` hops along the top row
/// and return its measured latency.
fn one_packet_latency(design: Design, distance: u16) -> u64 {
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let trace = Trace {
        label: format!("single d={distance}"),
        packets: vec![PacketDesc {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(distance),
            len: 1,
            created: 0,
            kind: FlitKind::Synthetic,
        }],
    };
    let mut model = TraceReplay::new(trace);
    let mode = RunMode::ClosedLoop { max_cycles: 10_000 };
    let res = run(RunPlan::model(design, &cfg, &mut model, mode)).result;
    assert!(res.completed, "{}: single packet stuck", design.name());
    assert_eq!(res.accepted_packets, 1);
    res.stats.packet_latency.max
}

/// Per-hop latency slope between two distances.
fn slope(design: Design) -> u64 {
    let l3 = one_packet_latency(design, 3);
    let l6 = one_packet_latency(design, 6);
    assert_eq!(
        (l6 - l3) % 3,
        0,
        "{}: latency not linear in distance ({l3} -> {l6})",
        design.name()
    );
    (l6 - l3) / 3
}

#[test]
fn lookahead_designs_cost_two_cycles_per_hop() {
    for design in [
        Design::DXbarDor,
        Design::DXbarWf,
        Design::UnifiedDor,
        Design::UnifiedWf,
        Design::FlitBless,
        Design::Scarab,
        Design::Afc,
    ] {
        assert_eq!(
            slope(design),
            2,
            "{}: expected the 2-stage SA/ST + LT pipeline",
            design.name()
        );
    }
}

#[test]
fn buffered_baseline_costs_three_cycles_per_hop() {
    for design in [Design::Buffered4, Design::Buffered8] {
        assert_eq!(
            slope(design),
            3,
            "{}: expected the 3-stage RC, VA+SA/ST, LT pipeline",
            design.name()
        );
    }
}

#[test]
fn zero_load_latency_ordering_matches_pipelines() {
    // At equal distance, the absolute zero-load latency of the buffered
    // baseline exceeds every look-ahead design.
    let d = 6;
    let buffered = one_packet_latency(Design::Buffered4, d);
    for design in [Design::DXbarDor, Design::FlitBless, Design::Scarab] {
        let l = one_packet_latency(design, d);
        assert!(
            buffered > l,
            "{}: {l} should undercut Buffered 4's {buffered}",
            design.name()
        );
    }
}
