//! Layer probes of the simulator crates, run in the second half of a traced
//! kernel run. Each times one layer's public calls from outside and reports
//! the median of repeated batches; the exact counts (`*.packets_generated`,
//! `sim.flits_delivered`, `verify.checks`, `model.*`) are simulated results
//! and repeat bit for bit at a given seed.

use crate::decl::{design_key, DESIGNS};
use crate::host;
use crate::run::{median_batch_s, Cx};
use crate::span;
use crate::stats;
use crate::workloads::kernel::{Lane, LOAD};
use dxbar_noc::noc_core::flit::{Flit, PacketDesc, PacketId};
use dxbar_noc::noc_core::pool::{FlitId, FlitPool};
use dxbar_noc::noc_core::stats::LatencyStats;
use dxbar_noc::noc_core::types::{NodeId, NUM_LINK_PORTS};
use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_sim::noc_trace::{chrome_trace_json, to_jsonl, RecordingSink};
use dxbar_noc::noc_sim::router::{RouterModel, StepCtx};
use dxbar_noc::noc_topology::link::DelayLine;
use dxbar_noc::noc_topology::tile::TilePartition;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::{DeliveredPacket, SyntheticTraffic, TrafficModel};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::{SplashApp, SplashTraffic};
use dxbar_noc::{
    run_synthetic, run_synthetic_resilient, run_synthetic_traced, run_synthetic_verified, Design,
    SimConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A credit-legal saturated environment for one interior router: every
/// input offers a flit whenever the credit ledger allows, the local port
/// always offers an injection, and every emitted flit's credit comes back
/// the next cycle. The router never idles and never sees an illegal input.
struct SaturatedDriver {
    ledger: [i64; NUM_LINK_PORTS],
    owed: [u32; NUM_LINK_PORTS],
    cycle: u64,
    next_packet: u64,
}

impl SaturatedDriver {
    const NODE: NodeId = NodeId(27); // (3,3) of the 8x8 mesh
    const DESTINATIONS: [u16; 4] = [7, 12, 28, 35];

    fn new(depth: usize) -> SaturatedDriver {
        SaturatedDriver {
            ledger: [depth as i64; NUM_LINK_PORTS],
            owed: [0; NUM_LINK_PORTS],
            cycle: 0,
            next_packet: 0,
        }
    }

    fn offer(&mut self, ctx: &mut StepCtx) {
        ctx.reset(self.cycle);
        for port in 0..NUM_LINK_PORTS {
            if self.ledger[port] > 0 {
                let dst = Self::DESTINATIONS[(port + self.cycle as usize) % 4];
                ctx.arrivals[port] = Some(Flit::synthetic(
                    PacketId(self.next_packet),
                    NodeId(0),
                    NodeId(dst),
                    self.cycle,
                ));
                self.next_packet += 1;
                self.ledger[port] -= 1;
            }
            ctx.credits_in[port] = self.owed[port].min(1);
            self.owed[port] -= ctx.credits_in[port];
        }
        ctx.injection = Some(Flit::synthetic(
            PacketId(u64::MAX - self.next_packet),
            Self::NODE,
            NodeId(60),
            self.cycle,
        ));
    }

    fn absorb(&mut self, ctx: &mut StepCtx) -> usize {
        let mut out = ctx.ejected.len() + ctx.dropped.len();
        for port in 0..NUM_LINK_PORTS {
            if ctx.out_links[port].take().is_some() {
                self.owed[port] += 1;
                out += 1;
            }
            self.ledger[port] += i64::from(ctx.credits_out[port]);
            // A router that left an arrival in place refused it; the
            // engine's contract says that cannot happen, so drop it here
            // rather than carry it into the next offer.
            ctx.arrivals[port] = None;
        }
        self.cycle += 1;
        out
    }
}

/// `router.<d>.step_ns`: one isolated `RouterModel::step` under saturation.
fn router_step_ns(design: Design, budget: Duration) -> f64 {
    const STEPS: u64 = 5_000;
    let cfg = SimConfig::default();
    let mesh = Mesh::for_config(&cfg);
    let mut router = design.build_router(&cfg, &FaultPlan::none(&mesh), SaturatedDriver::NODE);
    let mut driver = SaturatedDriver::new(cfg.buffer_depth);
    let mut ctx = StepCtx::new(0);
    let batch_s = median_batch_s(budget, || {
        for _ in 0..STEPS {
            driver.offer(&mut ctx);
            router.step(&mut ctx);
            black_box(driver.absorb(&mut ctx));
        }
    });
    batch_s * 1e9 / STEPS as f64
}

/// Node-cycles per second of `lane`, median of batches of `cycles`.
fn lane_rate(lane: &mut Lane, cycles: u64, budget: Duration) -> f64 {
    let batch_s = median_batch_s(budget, || lane.run(cycles));
    lane.nodes() * cycles as f64 / batch_s
}

/// Probes reported by the traced `kernel_8x8` run.
pub fn kernel_8x8(cx: &mut Cx) {
    let budget = cx.probe_budget(26);
    let seed = cx.args.seed;
    let tracer = cx.tracer.clone();
    let probes = tracer.span("probes", None);

    {
        let _s = tracer.span("RouterModel::step", probes.id());
        for (design, key) in DESIGNS {
            cx.layer(
                format!("router.{key}.step_ns"),
                router_step_ns(design, budget),
            );
        }
    }

    {
        let _s = tracer.span("TrafficModel::poll_into", probes.id());
        const CYCLES: u64 = 5_000;
        let cfg = SimConfig::default();
        let mesh = Mesh::for_config(&cfg);
        let source = || {
            SyntheticTraffic::new(
                Pattern::UniformRandom,
                mesh,
                cfg.injection_rate(LOAD),
                cfg.packet_len,
                seed,
            )
        };
        let mut out: Vec<PacketDesc> = Vec::new();
        let mut model = source();
        let mut generated = 0u64;
        for cycle in 0..CYCLES {
            out.clear();
            model.poll_into(cycle, &mut out);
            generated += out.len() as u64;
        }
        cx.layer("traffic.packets_generated", generated as f64);
        let mut cycle = CYCLES;
        let batch_s = median_batch_s(budget, || {
            for _ in 0..CYCLES {
                out.clear();
                model.poll_into(cycle, &mut out);
                black_box(out.len());
                cycle += 1;
            }
        });
        cx.layer(
            "traffic.poll_ns_per_node_cycle",
            batch_s * 1e9 / (CYCLES as f64 * mesh.num_nodes() as f64),
        );

        // SPLASH is closed loop: deliver every packet the cycle it is
        // created (a zero-latency network) so the protocol keeps moving.
        const SPLASH_CYCLES: u64 = 2_000;
        let mut splash = SplashTraffic::new(SplashApp::Fft, mesh, seed);
        let mut cycle = 0u64;
        let batch_s = median_batch_s(budget, || {
            for _ in 0..SPLASH_CYCLES {
                out.clear();
                splash.poll_into(cycle, &mut out);
                for p in &out {
                    splash.on_delivered(&DeliveredPacket {
                        id: p.id,
                        src: p.src,
                        dst: p.dst,
                        kind: p.kind,
                        created: p.created,
                        delivered: cycle,
                    });
                }
                cycle += 1;
                if splash.finished() {
                    splash = SplashTraffic::new(SplashApp::Fft, mesh, seed);
                    cycle = 0;
                }
            }
        });
        cx.layer(
            "traffic.splash_poll_ns_per_cycle",
            batch_s * 1e9 / SPLASH_CYCLES as f64,
        );
    }

    {
        let _s = tracer.span("DelayLine+FlitPool+LatencyStats", probes.id());
        const OPS: u64 = 20_000;
        let flit = |p: u64| Flit::synthetic(PacketId(p), NodeId(0), NodeId(63), p);

        let mut line: DelayLine<Flit> = DelayLine::new(2);
        let mut t = 0u64;
        let batch_s = median_batch_s(budget, || {
            for _ in 0..OPS {
                line.send(t, flit(t));
                black_box(line.recv(t));
                t += 1;
            }
        });
        cx.layer("link.send_recv_ns", batch_s * 1e9 / OPS as f64);

        // The per-hop path: a warmed pool, one take and one alloc per hop.
        let mut pool = FlitPool::with_capacity(256);
        let mut ids: Vec<FlitId> = (0..256).map(|i| pool.alloc(flit(i))).collect();
        let mut round = 0usize;
        let batch_s = median_batch_s(budget, || {
            for _ in 0..OPS {
                let slot = round % 251; // prime stride scrambles reuse order
                let f = pool.take(ids[slot]);
                ids[slot] = pool.alloc(black_box(f));
                round += 1;
            }
        });
        cx.layer("core.pool_alloc_take_ns", batch_s * 1e9 / OPS as f64);

        let mut lat = LatencyStats::default();
        let mut v = 1u64;
        let batch_s = median_batch_s(budget, || {
            for _ in 0..OPS {
                // A spread of latencies from single cycles to thousands.
                v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                lat.record(black_box(v >> 52));
            }
        });
        cx.layer("core.latency_record_ns", batch_s * 1e9 / OPS as f64);
    }

    {
        let _s = tracer.span("Network::run_cycles:load", probes.id());
        for (name, load) in [("0.1", 0.1), ("0.6", 0.6)] {
            let mut lane = Lane::build(Design::DXbarDor, 8, load, seed, 0);
            lane.run(500);
            cx.layer(
                format!("sim.load.{name}.node_cycles_per_s"),
                lane_rate(&mut lane, 1_000, budget),
            );
        }
    }

    {
        let _s = tracer.span("Design::build+run_synthetic", probes.id());
        let build_s = median_batch_s(budget, || {
            black_box(Lane::build(Design::DXbarDor, 8, LOAD, seed, 0));
        });
        cx.layer("sim.build_us_per_node.8x8", build_s * 1e6 / 64.0);

        let cfg = SimConfig {
            warmup_cycles: 250,
            measure_cycles: 1_000,
            drain_cycles: 250,
            seed,
            ..SimConfig::default()
        };
        // The same cycles with and without the run facade around them
        // (network build, window bookkeeping, result summary), alternated
        // so that host drift hits both alike.
        let (mut full, mut bare) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while full.len() < 3 || t0.elapsed() < 2 * budget {
            let f0 = Instant::now();
            black_box(run_synthetic(
                Design::DXbarDor,
                &cfg,
                Pattern::UniformRandom,
                LOAD,
            ));
            full.push(f0.elapsed().as_secs_f64());
            let mut lane = Lane::with_config(Design::DXbarDor, &cfg, LOAD, 0);
            let c0 = Instant::now();
            lane.run(cfg.total_cycles());
            bare.push(c0.elapsed().as_secs_f64());
        }
        let full_s = stats::median(&full);
        cx.layer(
            "sim.run_overhead_share",
            (full_s - stats::median(&bare)) / full_s,
        );
    }

    {
        let _s = tracer.span("Network::run_cycles:steady", probes.id());
        let mut lane = Lane::build(Design::DXbarDor, 8, LOAD, seed, 0);
        lane.run(2_000);
        let ((), allocations) = host::count_allocations(|| lane.run(1_000));
        cx.layer("sim.steady_allocs_per_kcycle", allocations as f64);
        cx.layer(
            "sim.flits_delivered",
            lane.net.stats().events.ejections as f64,
        );
    }

    {
        // Simulated time, not host time: the quick windows of EXPERIMENTS.md.
        let _s = tracer.span("run_synthetic:model", probes.id());
        let cfg = SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 3_000,
            drain_cycles: 1_500,
            seed,
            ..SimConfig::default()
        };
        let dxbar = run_synthetic(Design::DXbarDor, &cfg, Pattern::UniformRandom, LOAD);
        let buffered = run_synthetic(Design::Buffered4, &cfg, Pattern::UniformRandom, LOAD);
        cx.layer(
            "model.dxbar-dor.avg_latency_cycles",
            dxbar.avg_packet_latency,
        );
        cx.layer("model.dxbar-dor.accepted_rate", dxbar.accepted_rate);
        cx.layer("model.buffered4.accepted_rate", buffered.accepted_rate);
    }
}

/// Probes reported by the traced `kernel_64x64_tiled` run: the mesh-size
/// falloff of the sequential engine and the tile-worker scaling at 64x64.
pub fn kernel_64x64(cx: &mut Cx) {
    let budget = cx.probe_budget(8);
    let seed = cx.args.seed;
    let big: u16 = if cx.args.smoke { 16 } else { 64 };
    let tracer = cx.tracer.clone();
    let probes = tracer.span("probes", None);

    // Memory the first set-up added, over the nodes of its two networks.
    let (before, after) = cx.setup_rss_kb();
    let nodes = 2.0 * f64::from(big) * f64::from(big);
    cx.layer(
        "sim.rss_kb_per_node.64x64",
        after.saturating_sub(before) as f64 / nodes,
    );

    {
        let _s = tracer.span("TilePartition::new", probes.id());
        let s = median_batch_s(budget, || {
            black_box(TilePartition::new(big, big, 2));
        });
        cx.layer("topology.tile_partition_us", s * 1e6);
    }

    // About 200k node-cycles per batch at every size.
    let cycles_for = |edge: u16| (200_000 / (edge as u64 * edge as u64)).max(10);
    {
        let _s = tracer.span("Network::run_cycles:sizes", probes.id());
        for edge in [8u16, 16, 32] {
            let mut lane = Lane::build(Design::DXbarDor, edge, LOAD, seed, 0);
            lane.run(50);
            cx.layer(
                format!("sim.node_cycles_per_s.{edge}x{edge}"),
                lane_rate(&mut lane, cycles_for(edge), budget),
            );
        }
    }
    {
        let _s = tracer.span("Network::run_cycles:tiles", probes.id());
        let mut rates = [0.0; 3];
        for (workers, rate) in rates.iter_mut().enumerate() {
            let b0 = Instant::now();
            let mut lane = Lane::build(Design::DXbarDor, big, LOAD, seed, workers);
            if workers == 0 {
                let nodes = lane.nodes();
                cx.layer(
                    "sim.build_us_per_node.64x64",
                    b0.elapsed().as_secs_f64() * 1e6 / nodes,
                );
            }
            lane.run(50);
            *rate = lane_rate(&mut lane, cycles_for(big), budget);
            cx.layer(format!("sim.tiled.w{workers}.node_cycles_per_s"), *rate);
        }
        cx.layer("sim.node_cycles_per_s.64x64", rates[0]);
        cx.layer("sim.tiled.w1_over_w0", rates[1] / rates[0]);
        cx.layer("sim.tiled.w2_over_w0", rates[2] / rates[0]);
    }
}

/// Probes reported by the traced `kernel_8x8_observed` run. Overheads are
/// wall time over a plain `run_synthetic` of the same configuration.
pub fn observers(cx: &mut Cx, cfg: &SimConfig) {
    let budget = cx.probe_budget(5);
    let design = Design::DXbarDor;
    let key = design_key(design);
    let mesh = Mesh::for_config(cfg);
    let tracer = cx.tracer.clone();
    let probes = tracer.span("probes", None);

    let base_s = {
        let _s = tracer.span("run_synthetic", probes.id());
        median_batch_s(budget, || {
            black_box(run_synthetic(design, cfg, Pattern::UniformRandom, LOAD));
        })
    };
    // The observed passes already timed these two facades, span by span.
    let spans = tracer.finished();
    let span_s = |name: &str| stats::median(&span::durations_ms(&spans, name)) / 1e3;
    cx.layer(
        "verify.overhead_x",
        span_s(&format!("run_synthetic_verified:{key}")) / base_s,
    );
    cx.layer(
        "trace.overhead_x",
        span_s(&format!("run_synthetic_traced:{key}")) / base_s,
    );

    {
        let _s = tracer.span("to_jsonl+chrome_trace_json", probes.id());
        let (_, sink) = run_synthetic_traced(
            design,
            cfg,
            Pattern::UniformRandom,
            LOAD,
            RecordingSink::new(0, 16),
        );
        cx.layer("trace.events", sink.recorder.total_seen() as f64);
        let events = sink.recorder.into_events();
        let s = median_batch_s(budget, || {
            black_box(to_jsonl(&events).len() + chrome_trace_json(&events).len());
        });
        cx.layer("trace.export_ms", s * 1e3);
    }

    match run_synthetic_verified(
        design,
        cfg,
        Pattern::UniformRandom,
        LOAD,
        &FaultPlan::none(&mesh),
    ) {
        Ok((_, report)) => cx.layer("verify.checks", report.checks.total() as f64),
        Err(e) => cx.layer("verify.checks", e.report.checks.total() as f64),
    }

    {
        let _s = tracer.span(
            "ResiliencePlan::generate+run_synthetic_resilient",
            probes.id(),
        );
        // A quarter of the crossbars faulty, two dead links, soft errors.
        let onset = (cfg.warmup_cycles / 2, cfg.warmup_cycles.max(1));
        let plan = || ResiliencePlan::generate(&mesh, 0.25, 2, 1e-4, onset.0, onset.1, cfg.seed);
        let s = median_batch_s(budget / 4, || {
            black_box(plan());
        });
        cx.layer("faults.plan_us", s * 1e6);
        let plan = plan();
        let s = median_batch_s(budget, || {
            black_box(run_synthetic_resilient(
                design,
                cfg,
                Pattern::UniformRandom,
                LOAD,
                &plan,
            ));
        });
        cx.layer("resilience.overhead_x", s / base_s);
    }

    {
        let _s = tracer.span("run_scenario", probes.id());
        let scenario = noc_scenario::ScenarioSpec::resolve("interfere2", cfg)
            .expect("interfere2 is registered");
        let s = median_batch_s(budget, || {
            black_box(
                noc_scenario::run_scenario(Design::FlitBless, cfg, &scenario, LOAD)
                    .expect("valid pair"),
            );
        });
        cx.layer("scenario.run_ms", s * 1e3);
    }
}
