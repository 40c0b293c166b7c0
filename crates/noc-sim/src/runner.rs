//! High-level run orchestration: warmup/measure/drain windows for open-loop
//! synthetic traffic and run-to-completion for closed-loop workloads.

use crate::network::Network;
use crate::report::RunResult;
use crate::router::RouterModel;
use noc_power::energy::EnergyModel;
use noc_traffic::generator::TrafficModel;

/// How a run terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Open loop: simulate `warmup + measure + drain` cycles (from the
    /// network's `SimConfig`) and report measurement-window statistics.
    OpenLoop,
    /// Closed loop: simulate until the traffic model reports completion and
    /// the network is empty, or until `max_cycles`. Reports whole-run
    /// statistics and the completion cycle (the "execution time").
    ClosedLoop { max_cycles: u64 },
}

/// Execute a run and summarize it.
pub fn run<R: RouterModel>(
    net: &mut Network<R>,
    model: &mut dyn TrafficModel,
    mode: RunMode,
    energy: &EnergyModel,
) -> RunResult {
    let (finish_cycle, completed) = match mode {
        RunMode::OpenLoop => {
            let total = net.config().total_cycles();
            net.run_cycles(model, total);
            (None, true)
        }
        RunMode::ClosedLoop { max_cycles } => {
            let mut done_at = None;
            while net.cycle() < max_cycles {
                net.step(model);
                if model.finished() && net.is_quiescent() {
                    done_at = Some(net.cycle());
                    break;
                }
            }
            (done_at, done_at.is_some())
        }
    };

    summarize(net, model, energy, finish_cycle, completed)
}

fn summarize<R: RouterModel>(
    net: &Network<R>,
    model: &dyn TrafficModel,
    energy: &EnergyModel,
    finish_cycle: Option<u64>,
    completed: bool,
) -> RunResult {
    let cfg = net.config();
    let stats = net.stats().clone();
    let num_nodes = cfg.num_nodes();

    // Closed-loop runs measure the whole run; open-loop only the window.
    let window = if finish_cycle.is_some() {
        stats.events
    } else {
        stats.window_events()
    };

    let accepted_rate = if let Some(fin) = finish_cycle {
        if fin == 0 {
            0.0
        } else {
            stats.events.ejections as f64 / (fin as f64 * num_nodes as f64)
        }
    } else {
        stats.accepted_rate(num_nodes)
    };

    let accepted_packets = if finish_cycle.is_some() {
        // All packets count in closed loop.
        stats.accepted_packets.max(stats.packet_latency.count)
    } else {
        stats.accepted_packets
    };

    let switched = window.xbar_traversals + window.unified_xbar_traversals;
    let buffered_fraction = if switched == 0 {
        0.0
    } else {
        window.buffer_writes as f64 / switched as f64
    };
    let per_packet = |x: u64| {
        if accepted_packets == 0 {
            0.0
        } else {
            x as f64 / accepted_packets as f64
        }
    };

    RunResult {
        design: net.design_name().to_string(),
        traffic: model.label(),
        offered_load: None,
        accepted_rate,
        accepted_fraction: accepted_rate / cfg.capacity_per_node(),
        avg_packet_latency: stats.packet_latency.mean(),
        avg_flit_latency: stats.flit_latency.mean(),
        avg_packet_energy_nj: energy.avg_packet_energy_nj(&window, accepted_packets),
        energy: energy.breakdown(&window),
        accepted_packets,
        deflections_per_packet: per_packet(window.deflections),
        drops_per_packet: per_packet(window.drops),
        buffered_fraction,
        max_source_latency: stats.max_source_latency(),
        latency_spread: stats.latency_spread(),
        finish_cycle,
        completed,
        lost_flits: window.flits_lost,
        crc_rejects: window.crc_rejects,
        ni_retransmits: window.ni_retransmits,
        avg_recovery_latency: stats.recovery_latency.mean(),
        apps: Vec::new(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{RouterModel, StepCtx};
    use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS};
    use noc_core::SimConfig;
    use noc_routing::Algorithm;
    use noc_topology::Mesh;
    use noc_traffic::generator::SyntheticTraffic;
    use noc_traffic::patterns::Pattern;

    /// A deliberately simple reference router used to exercise the engine
    /// before the real designs exist: single-cycle, output-conflict-free by
    /// age priority, unlimited virtual buffering of losers.
    ///
    /// It is NOT one of the paper's designs — just an engine test vehicle —
    /// but it must still deliver every packet.
    struct TestRouter {
        node: NodeId,
        mesh: Mesh,
        held: Vec<noc_core::Flit>,
    }

    impl RouterModel for TestRouter {
        fn node(&self) -> NodeId {
            self.node
        }

        fn step(&mut self, ctx: &mut StepCtx) {
            // Gather requesters: held flits first (oldest first), then
            // arrivals, then injection. Arrivals must be *taken* — the
            // engine reuses one StepCtx across routers and only clears
            // consumed slots in debug builds. Unlimited buffering: return
            // a credit per arrival so upstream never stalls (the engine
            // ignores credits unless routers use them).
            for d in LINK_DIRECTIONS {
                if let Some(a) = ctx.arrivals[d.index()].take() {
                    self.held.push(a);
                    ctx.credits_out[d.index()] = 1;
                }
            }
            if let Some(inj) = ctx.injection {
                self.held.push(inj);
                ctx.injected = true;
            }
            self.held.sort_by_key(|f| f.age_key());
            let mut used = [false; 5];
            let mut remaining = Vec::new();
            for f in self.held.drain(..) {
                let want = Algorithm::Dor.route(&self.mesh, self.node, f.dst);
                let dir = want.iter().next().unwrap();
                if used[dir.index()] {
                    remaining.push(f);
                    continue;
                }
                used[dir.index()] = true;
                ctx.events.xbar_traversals += 1;
                if dir == Direction::Local {
                    ctx.ejected.push(f);
                } else {
                    ctx.out_links[dir.index()] = Some(f);
                }
            }
            self.held = remaining;
        }

        fn is_idle(&self) -> bool {
            self.held.is_empty()
        }

        fn occupancy(&self) -> usize {
            self.held.len()
        }

        fn design_name(&self) -> &'static str {
            "TestRouter"
        }
    }

    fn test_cfg() -> SimConfig {
        SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 200,
            measure_cycles: 600,
            drain_cycles: 400,
            ..SimConfig::default()
        }
    }

    fn build_net(cfg: &SimConfig) -> Network {
        let mesh = Mesh::new(cfg.width, cfg.height);
        Network::new(cfg, &move |node| {
            Box::new(TestRouter {
                node,
                mesh,
                held: Vec::new(),
            }) as Box<dyn RouterModel>
        })
    }

    #[test]
    fn open_loop_low_load_delivers_offered() {
        let cfg = test_cfg();
        let mut net = build_net(&cfg);
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), 0.05, 1, 42);
        let energy = EnergyModel::default();
        let res = run(&mut net, &mut model, RunMode::OpenLoop, &energy);
        // At 0.05 flits/node/cycle the network is far below saturation:
        // accepted ~= offered.
        let offered = net.stats().offered_rate(16);
        assert!(
            (res.accepted_rate - offered).abs() / offered < 0.10,
            "accepted {} vs offered {offered}",
            res.accepted_rate
        );
        assert!(res.avg_packet_latency > 0.0);
        assert!(res.avg_packet_energy_nj > 0.0);
        assert_eq!(net.reassembly_duplicates(), 0);
    }

    #[test]
    fn drain_empties_network_at_low_load() {
        let cfg = test_cfg();
        let mut net = build_net(&cfg);
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), 0.02, 1, 7);
        // Stop generating after the measure window by running manually.
        net.run_cycles(&mut model, cfg.warmup_cycles + cfg.measure_cycles);
        let mut silent = noc_traffic::trace::TraceReplay::new(Default::default());
        net.run_cycles(&mut silent, cfg.drain_cycles);
        assert!(net.is_quiescent(), "{} flits stuck", net.flits_in_flight());
    }

    #[test]
    fn open_loop_cuts_generation_at_drain() {
        // The Bernoulli source must stop at the end of the measurement
        // window, so a sub-saturation run drains to empty and per-packet
        // energy is not inflated by drain-phase traffic.
        let cfg = test_cfg();
        let mut net = build_net(&cfg);
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), 0.05, 1, 21);
        let energy = EnergyModel::default();
        let res = run(&mut net, &mut model, RunMode::OpenLoop, &energy);
        assert!(net.is_quiescent(), "{} flits remain", net.flits_in_flight());
        // Every generated flit was delivered: whole-run ejections equal
        // whole-run creations (offered counts only the window).
        assert_eq!(net.stats().events.injections, net.stats().events.ejections);
        assert!(res.avg_packet_energy_nj > 0.0);
    }

    #[test]
    fn energy_scales_with_load() {
        let cfg = test_cfg();
        let energy = EnergyModel::default();
        let mut totals = Vec::new();
        for load in [0.02, 0.10] {
            let mut net = build_net(&cfg);
            let mut model =
                SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), load, 1, 42);
            let res = run(&mut net, &mut model, RunMode::OpenLoop, &energy);
            totals.push(res.energy.total_pj());
        }
        assert!(
            totals[1] > totals[0] * 2.0,
            "energy should grow with load: {totals:?}"
        );
    }

    #[test]
    fn closed_loop_runs_to_completion() {
        let cfg = SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 0,
            measure_cycles: u64::MAX / 4,
            drain_cycles: 0,
            ..SimConfig::default()
        };
        let mut net = build_net(&cfg);
        // Replay a short captured trace; closed loop ends when all done.
        let mut src = SyntheticTraffic::new(Pattern::Complement, Mesh::new(4, 4), 0.2, 1, 3);
        let trace = noc_traffic::trace::Trace::capture(&mut src, 100);
        let n = trace.len() as u64;
        let mut model = noc_traffic::trace::TraceReplay::new(trace);
        let energy = EnergyModel::default();
        let res = run(
            &mut net,
            &mut model,
            RunMode::ClosedLoop {
                max_cycles: 100_000,
            },
            &energy,
        );
        assert!(res.completed, "run did not finish");
        assert!(res.finish_cycle.unwrap() > 100);
        assert_eq!(res.stats.events.ejections, n, "all flits delivered");
    }

    /// Step `net` with a silent traffic source until quiescent (bounded).
    fn drain_to_quiescence(net: &mut Network, cap: u64) {
        let mut silent = noc_traffic::trace::TraceReplay::new(Default::default());
        for _ in 0..cap {
            if net.is_quiescent() {
                return;
            }
            net.step(&mut silent);
        }
        panic!(
            "network failed to drain: {} flits, {} pending transmissions",
            net.flits_in_flight(),
            net.resilience().map_or(0, |r| r.pending_transmissions())
        );
    }

    /// Unique-flit conservation under a resilience plan, valid once the
    /// network is quiescent: every flit the sources created was delivered
    /// exactly once or counted lost.
    fn assert_loss_accounting(net: &Network) {
        let ev = &net.stats().events;
        // Each unique flit is injected once, plus once per retransmission
        // (NI timeouts/NACKs and SCARAB drops both re-inject).
        let unique = ev.injections - ev.ni_retransmits - ev.retransmissions;
        let delivered = ev.ejections - ev.crc_rejects - ev.duplicates_suppressed;
        assert_eq!(
            unique,
            delivered + ev.flits_lost,
            "created {unique} != delivered {delivered} + lost {}",
            ev.flits_lost
        );
        assert_eq!(net.reassembly_duplicates(), 0);
    }

    #[test]
    fn resilient_run_recovers_transient_faults() {
        use noc_resilience::{ResiliencePlan, TransientSpec};
        let cfg = test_cfg();
        let mut net = build_net(&cfg);
        // A hot transient process: plenty of corruptions and wire drops.
        net.set_resilience(ResiliencePlan::none().with_transients(TransientSpec::new(2e-3, 11)));
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), 0.05, 1, 42);
        let energy = EnergyModel::default();
        let _ = run(&mut net, &mut model, RunMode::OpenLoop, &energy);
        drain_to_quiescence(&mut net, 50_000);
        let ev = &net.stats().events;
        assert!(
            ev.transit_corruptions > 0 && ev.transit_losses > 0,
            "expected both strike kinds: {ev:?}"
        );
        assert!(ev.crc_rejects > 0, "corruptions must be caught by the CRC");
        assert!(ev.ni_retransmits > 0, "losses must trigger retransmissions");
        assert_loss_accounting(&net);
        // At this mild rate the retry budget recovers everything.
        assert_eq!(ev.flits_lost, 0, "retry budget should cover 2e-3");
        assert!(net.stats().recovery_latency.count > 0);
    }

    #[test]
    fn dead_link_with_oblivious_routing_counts_losses_without_hanging() {
        use noc_resilience::{LinkFault, ResiliencePlan};
        let cfg = test_cfg();
        let mut net = build_net(&cfg);
        // DOR cannot route around a dead channel: every packet whose DOR
        // path crosses it burns the retry budget and is counted lost —
        // graceful degradation, not a hang.
        net.set_resilience(ResiliencePlan::none().with_link_faults(vec![
            LinkFault {
                node: NodeId(5),
                dir: Direction::East,
                onset: 0,
            },
            LinkFault {
                node: NodeId(6),
                dir: Direction::West,
                onset: 0,
            },
        ]));
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), 0.05, 1, 7);
        let energy = EnergyModel::default();
        let _ = run(&mut net, &mut model, RunMode::OpenLoop, &energy);
        drain_to_quiescence(&mut net, 100_000);
        let ev = &net.stats().events;
        assert!(ev.transit_losses > 0, "dead link must swallow flits");
        assert!(
            ev.flits_lost > 0,
            "unreachable-by-DOR flits are counted lost"
        );
        assert_loss_accounting(&net);
    }

    #[test]
    fn resilient_fault_free_run_changes_no_delivery_outcome() {
        // With an inert plan the ARQ layer sequences and ACKs but never
        // retransmits; delivery counts match the unprotected run.
        use noc_resilience::ResiliencePlan;
        let cfg = test_cfg();
        let energy = EnergyModel::default();
        let mut plain = build_net(&cfg);
        let mut m1 = SyntheticTraffic::new(Pattern::MatrixTranspose, Mesh::new(4, 4), 0.06, 1, 13);
        let r_plain = run(&mut plain, &mut m1, RunMode::OpenLoop, &energy);
        let mut shielded = build_net(&cfg);
        shielded.set_resilience(ResiliencePlan::none());
        let mut m2 = SyntheticTraffic::new(Pattern::MatrixTranspose, Mesh::new(4, 4), 0.06, 1, 13);
        let r_shielded = run(&mut shielded, &mut m2, RunMode::OpenLoop, &energy);
        drain_to_quiescence(&mut shielded, 10_000);
        assert_eq!(r_plain.accepted_packets, r_shielded.accepted_packets);
        assert_eq!(r_plain.avg_packet_latency, r_shielded.avg_packet_latency);
        assert_eq!(r_shielded.lost_flits, 0);
        assert_eq!(r_shielded.ni_retransmits, 0);
        assert_loss_accounting(&shielded);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cfg = test_cfg();
        let energy = EnergyModel::default();
        let mut results = Vec::new();
        for _ in 0..2 {
            let mut net = build_net(&cfg);
            let mut model = SyntheticTraffic::new(Pattern::Tornado, Mesh::new(4, 4), 0.08, 1, 99);
            let res = run(&mut net, &mut model, RunMode::OpenLoop, &energy);
            results.push((
                res.accepted_packets,
                res.stats.events.link_traversals,
                res.avg_packet_latency.to_bits(),
            ));
        }
        assert_eq!(results[0], results[1]);
    }
}
