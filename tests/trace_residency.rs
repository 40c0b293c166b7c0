//! Buffer residency in the trace agrees with the buffers themselves.
//!
//! Every design that parks flits emits a `BufferEnter` per buffer write
//! and a `BufferExit` per read, whose `waited` is the flit's own
//! residency. Two properties pin that:
//!
//! * a sink attached mid-run, while buffers are already occupied, still
//!   sees each `BufferExit` paired with its own `BufferEnter`: `waited ==
//!   exit.cycle - enter.cycle` for every flit whose write it recorded;
//! * a sink attached from cycle 0 sees every write and read, so the
//!   `BufferEnter` count equals the `BufferExit` count plus what the
//!   routers still hold at the end.

use dxbar_noc::noc_sim::noc_trace::{RecordingSink, TraceEvent};
use dxbar_noc::{Design, RouterKind, SimConfig};
use noc_core::types::NodeId;
use noc_faults::FaultPlan;
use noc_sim::Network;
use noc_topology::Mesh;
use noc_traffic::generator::SyntheticTraffic;
use noc_traffic::patterns::Pattern;
use std::collections::HashMap;

/// Every design that parks flits in a buffer.
const BUFFERING: [Design; 9] = [
    Design::Buffered4,
    Design::Buffered8,
    Design::DXbarDor,
    Design::DXbarWf,
    Design::UnifiedDor,
    Design::UnifiedWf,
    Design::Afc,
    Design::Damq,
    Design::MinBd,
];

/// An 8x8 mesh under 4-flit uniform-random packets at 0.45
/// packets/node/cycle: heavy enough that buffers hold flits at any cycle.
fn network(design: Design) -> (Network<RouterKind>, SyntheticTraffic) {
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 2,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(8, 8);
    let net = design.build(&cfg, &FaultPlan::none(&mesh));
    let model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.45, 4, 7);
    (net, model)
}

fn occupancy(net: &Network<RouterKind>) -> usize {
    (0..net.mesh().num_nodes())
        .map(|n| net.router_occupancy(NodeId(n as u16)))
        .sum()
}

fn events(net: &mut Network<RouterKind>) -> Vec<TraceEvent> {
    let sink = net.detach::<RecordingSink>().expect("a RecordingSink");
    sink.recorder.iter().collect()
}

#[test]
fn waited_is_the_flits_own_residency_after_a_mid_run_attach() {
    for design in BUFFERING {
        let (mut net, mut model) = network(design);
        net.run_cycles(&mut model, 500);
        assert!(
            occupancy(&net) > 0,
            "{}: buffers empty at attach",
            design.name()
        );
        net.attach(RecordingSink::new(0, 16));
        net.run_cycles(&mut model, 500);

        // Write cycle of each flit the sink saw enter a buffer.
        let mut entered = HashMap::new();
        let (mut checked, mut wrong) = (0, 0);
        for ev in events(&mut net) {
            match ev {
                TraceEvent::BufferEnter {
                    cycle,
                    node,
                    packet,
                    flit_index,
                    ..
                } => {
                    entered.insert((node, packet, flit_index), cycle);
                }
                TraceEvent::BufferExit {
                    cycle,
                    node,
                    packet,
                    flit_index,
                    waited,
                } => {
                    if let Some(at) = entered.remove(&(node, packet, flit_index)) {
                        checked += 1;
                        wrong += usize::from(waited != cycle - at);
                    }
                }
                _ => {}
            }
        }
        assert!(checked > 0, "{}: no buffer exit checked", design.name());
        assert_eq!(
            wrong,
            0,
            "{}: {wrong} of {checked} buffer exits report a residency other than their own",
            design.name()
        );
    }
}

#[test]
fn every_buffer_write_is_read_or_still_held() {
    for design in BUFFERING {
        let (mut net, mut model) = network(design);
        net.attach(RecordingSink::new(0, 16));
        net.run_cycles(&mut model, 1_000);
        let held = occupancy(&net);
        let evs = events(&mut net);
        let count = |k: fn(&TraceEvent) -> bool| evs.iter().filter(|e| k(e)).count();
        let enters = count(|e| matches!(e, TraceEvent::BufferEnter { .. }));
        let exits = count(|e| matches!(e, TraceEvent::BufferExit { .. }));
        assert!(exits > 0, "{}: nothing left a buffer", design.name());
        assert_eq!(
            enters,
            exits + held,
            "{}: {enters} buffer writes, {exits} reads, {held} flits held",
            design.name()
        );
    }
}
