//! Engine wiring tests: a probe router records exactly what the engine
//! delivers to it, proving the link geometry (a flit sent East arrives on
//! the neighbour's West input two cycles later), credit return paths and
//! injection offers.

use noc_core::flit::{Flit, PacketId};
use noc_core::types::{Cycle, Direction, NodeId, LINK_DIRECTIONS};
use noc_core::SimConfig;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::Network;
use noc_traffic::generator::TrafficModel;
use noc_traffic::trace::{Trace, TraceReplay};
use std::sync::{Arc, Mutex};

/// What one probe observed, shared with the test body.
#[derive(Debug, Default)]
struct Log {
    arrivals: Vec<(Cycle, Direction, Flit)>,
    credits: Vec<(Cycle, Direction, u32)>,
    offers: Vec<(Cycle, Flit)>,
}

/// A router that ejects everything addressed to it, forwards everything
/// else East->West order by a fixed direction, and logs all inputs.
struct Probe {
    node: NodeId,
    log: Arc<Mutex<Log>>,
    /// Scripted sends: (cycle, direction, flit).
    sends: Vec<(Cycle, Direction, Flit)>,
    /// Scripted credit returns: (cycle, input direction, amount).
    credit_returns: Vec<(Cycle, Direction, u32)>,
    held: usize,
}

impl RouterModel for Probe {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        let t = ctx.cycle;
        let mut log = self.log.lock().unwrap();
        for d in LINK_DIRECTIONS {
            if let Some(f) = ctx.arrivals[d.index()].take() {
                log.arrivals.push((t, d, f));
                // Swallow the flit (count it as held so conservation holds).
                self.held += 1;
                if f.dst == self.node {
                    self.held -= 1;
                    ctx.ejected.push(f);
                }
            }
            if ctx.credits_in[d.index()] > 0 {
                log.credits.push((t, d, ctx.credits_in[d.index()]));
            }
        }
        if let Some(inj) = ctx.injection {
            log.offers.push((t, inj));
            // Never accept: injection offers must repeat.
        }
        for (cycle, dir, flit) in &self.sends {
            if *cycle == t {
                ctx.out_links[dir.index()] = Some(*flit);
                // The scripted flit was pre-held at construction.
                self.held -= 1;
            }
        }
        for (cycle, dir, amount) in &self.credit_returns {
            if *cycle == t {
                ctx.credits_out[dir.index()] = *amount;
            }
        }
        // Conservation bookkeeping: scripted sends conjure flits unless a
        // matching arrival was held; tests only script legal sequences.
    }

    fn is_idle(&self) -> bool {
        true
    }

    fn occupancy(&self) -> usize {
        // The engine's conservation debug-check is driven by this; probes
        // absorb flits, so report what we hold.
        self.held
    }

    fn design_name(&self) -> &'static str {
        "Probe"
    }
}

fn cfg() -> SimConfig {
    SimConfig {
        width: 3,
        height: 3,
        warmup_cycles: 0,
        measure_cycles: 1_000,
        drain_cycles: 0,
        ..SimConfig::default()
    }
}

fn flit(src: u16, dst: u16) -> Flit {
    Flit::synthetic(PacketId(1), NodeId(src), NodeId(dst), 0)
}

struct Silent;
impl TrafficModel for Silent {
    fn poll(&mut self, _: Cycle) -> Vec<noc_core::flit::PacketDesc> {
        Vec::new()
    }
    fn label(&self) -> String {
        "silent".into()
    }
}

#[test]
fn flit_sent_east_arrives_on_west_input_after_two_cycles() {
    // Same wiring however the mesh is tiled: 0 and 1 are one inline tile,
    // 4 cuts the 3x3 mesh 2x2 and puts the 3 -> 4 link on a seam.
    for (threads, tiles) in [(0, 1), (1, 1), (4, 4)] {
        east_send_arrives_west(threads, tiles);
    }
}

fn east_send_arrives_west(threads: usize, tiles: usize) {
    // Node 3 (0,1) sends East at cycle 5 -> node 4 (1,1) West input, t=7.
    let logs: Vec<Arc<Mutex<Log>>> = (0..9)
        .map(|_| Arc::new(Mutex::new(Log::default())))
        .collect();
    let logs_for_factory = logs.clone();
    let mut net = Network::new(&cfg(), &move |node| {
        let mut sends = Vec::new();
        if node == NodeId(3) {
            sends.push((5u64, Direction::East, flit(3, 4)));
        }
        // Scripted flits are "pre-held" so the engine's conservation check
        // sees them leave legally.
        let held = sends.len();
        Box::new(Probe {
            node,
            log: logs_for_factory[node.index()].clone(),
            sends,
            credit_returns: Vec::new(),
            held,
        }) as Box<dyn RouterModel>
    });
    net.set_tile_threads(threads);
    assert_eq!(net.tile_threads(), tiles, "{threads} requested");
    net.run_cycles(&mut Silent, 10);
    let log4 = logs[4].lock().unwrap();
    assert_eq!(log4.arrivals.len(), 1);
    let (t, d, f) = log4.arrivals[0];
    assert_eq!(t, 7, "2-cycle link latency (ST at 5, LT 6, SA at 7)");
    assert_eq!(d, Direction::West, "East output feeds the West input");
    assert_eq!(f.dst, NodeId(4));
    assert_eq!(f.hops, 1, "engine counts the hop");
    // Nobody else saw anything.
    for (i, l) in logs.iter().enumerate() {
        if i != 4 {
            assert!(
                l.lock().unwrap().arrivals.is_empty(),
                "stray arrival at n{i}"
            );
        }
    }
}

#[test]
fn credits_return_to_the_upstream_output_after_one_cycle() {
    // Node 4 (1,1) returns 2 credits on its West *input* at cycle 3; the
    // upstream node 3 must see them on its East *output* at cycle 4.
    let logs: Vec<Arc<Mutex<Log>>> = (0..9)
        .map(|_| Arc::new(Mutex::new(Log::default())))
        .collect();
    let logs_for_factory = logs.clone();
    let mut net = Network::new(&cfg(), &move |node| {
        let mut credit_returns = Vec::new();
        if node == NodeId(4) {
            credit_returns.push((3u64, Direction::West, 2u32));
        }
        Box::new(Probe {
            node,
            log: logs_for_factory[node.index()].clone(),
            sends: Vec::new(),
            credit_returns,
            held: 0,
        }) as Box<dyn RouterModel>
    });
    net.run_cycles(&mut Silent, 6);
    let log3 = logs[3].lock().unwrap();
    assert_eq!(log3.credits, vec![(4, Direction::East, 2)]);
}

#[test]
fn injection_offer_repeats_until_accepted() {
    // A one-packet trace: the probe never accepts, so the same flit must be
    // offered every cycle (head-of-queue semantics).
    let logs: Vec<Arc<Mutex<Log>>> = (0..9)
        .map(|_| Arc::new(Mutex::new(Log::default())))
        .collect();
    let logs_for_factory = logs.clone();
    let mut net = Network::new(&cfg(), &move |node| {
        Box::new(Probe {
            node,
            log: logs_for_factory[node.index()].clone(),
            sends: Vec::new(),
            credit_returns: Vec::new(),
            held: 0,
        }) as Box<dyn RouterModel>
    });
    let trace = Trace {
        label: "one".into(),
        packets: vec![noc_core::flit::PacketDesc {
            id: PacketId(9),
            src: NodeId(0),
            dst: NodeId(8),
            len: 1,
            created: 2,
            kind: noc_core::flit::FlitKind::Synthetic,
        }],
    };
    let mut replay = TraceReplay::new(trace);
    net.run_cycles(&mut replay, 8);
    let log0 = logs[0].lock().unwrap();
    // Offered from cycle 2 to cycle 7 inclusive = 6 offers, same packet.
    assert_eq!(log0.offers.len(), 6);
    assert!(log0.offers.iter().all(|(_, f)| f.packet == PacketId(9)));
    assert_eq!(log0.offers[0].0, 2);
    // The `injected` stamp tracks the offering cycle.
    assert_eq!(log0.offers[3].1.injected, 5);
}

#[test]
fn run_result_json_roundtrips() {
    // The figure regenerators persist RunResult as JSON; the full struct
    // (nested stats, histograms, energy breakdown) must survive a roundtrip.
    use noc_faults::FaultPlan;
    use noc_power::energy::EnergyModel;
    use noc_sim::runner::{run, RunMode};
    use noc_sim::RunResult;

    let cfg = SimConfig {
        width: 3,
        height: 3,
        warmup_cycles: 50,
        measure_cycles: 200,
        drain_cycles: 100,
        ..SimConfig::default()
    };
    let _ = FaultPlan::none(&noc_topology::Mesh::new(3, 3));
    let logs: Vec<Arc<Mutex<Log>>> = (0..9)
        .map(|_| Arc::new(Mutex::new(Log::default())))
        .collect();
    let mut net = Network::new(&cfg, &move |node| {
        Box::new(Probe {
            node,
            log: logs[node.index()].clone(),
            sends: Vec::new(),
            credit_returns: Vec::new(),
            held: 0,
        }) as Box<dyn RouterModel>
    });
    let mut model = noc_traffic::generator::SyntheticTraffic::new(
        noc_traffic::patterns::Pattern::Neighbor,
        noc_topology::Mesh::new(3, 3),
        0.0, // probes never accept injections; keep the run trivial
        1,
        1,
    );
    let res = run(
        &mut net,
        &mut model,
        RunMode::OpenLoop,
        &EnergyModel::default(),
    );
    let json = serde_json::to_string(&res).expect("serialize");
    let back: RunResult = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.design, res.design);
    assert_eq!(back.accepted_packets, res.accepted_packets);
    assert_eq!(back.stats.events, res.stats.events);
}
