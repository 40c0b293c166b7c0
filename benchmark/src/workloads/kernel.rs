//! The three cycle-kernel workloads: the paper's 8x8 mesh with observers
//! off, the 64x64 mesh on two tile workers, and the 8x8 mesh driven through
//! the verified and traced facades.
//!
//! Networks are built once in set-up and stepped on across passes, so a pass
//! is pure `Network::run_cycles`. Simulated results are never timed, only
//! compared: against pinned fingerprints at the default seed, and against a
//! second engine configuration at every seed.

use crate::decl::{design_key, DESIGNS};
use crate::probes;
use crate::run::Cx;
use crate::span;
use crate::stats;
use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_sim::noc_trace::RecordingSink;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{
    run_synthetic_traced, run_synthetic_verified, Design, Network, RouterKind, SimConfig,
};
use noc_campaign::fnv1a64;
use std::time::Instant;

/// Offered load of every kernel workload, as a share of capacity.
pub const LOAD: f64 = 0.3;

/// One design's network with its traffic source, stepped on pass after pass.
pub struct Lane {
    pub design: Design,
    pub net: Network<RouterKind>,
    pub model: SyntheticTraffic,
}

impl Lane {
    /// Build a fault-free `edge` x `edge` network under uniform random
    /// traffic at `load`. `tile_threads` 0 is the sequential engine.
    pub fn build(design: Design, edge: u16, load: f64, seed: u64, tile_threads: usize) -> Lane {
        // The engine stops injecting once the measurement window closes, and
        // a lane is stepped for as long as the time budget lasts: open the
        // window at cycle 0 and never close it.
        let cfg = SimConfig {
            width: edge,
            height: edge,
            seed,
            warmup_cycles: 0,
            measure_cycles: 1 << 40,
            drain_cycles: 0,
            ..SimConfig::default()
        };
        Lane::with_config(design, &cfg, load, tile_threads)
    }

    /// Like [`Lane::build`] for an explicit configuration (mesh shape,
    /// measurement windows, seed).
    pub fn with_config(design: Design, cfg: &SimConfig, load: f64, tile_threads: usize) -> Lane {
        let seed = cfg.seed;
        let mesh = Mesh::for_config(cfg);
        let mut net = design.build(cfg, &FaultPlan::none(&mesh));
        if tile_threads > 0 {
            net.set_tile_threads(tile_threads);
        }
        let model = SyntheticTraffic::new(
            Pattern::UniformRandom,
            mesh,
            cfg.injection_rate(load),
            cfg.packet_len,
            seed,
        );
        Lane { design, net, model }
    }

    pub fn run(&mut self, cycles: u64) {
        self.net.run_cycles(&mut self.model, cycles);
    }

    pub fn nodes(&self) -> f64 {
        self.net.mesh().num_nodes() as f64
    }

    /// FNV-1a of the serialized `NetStats`, and flits delivered so far.
    pub fn fingerprint(&self) -> (u64, u64) {
        let stats = serde_json::to_string(self.net.stats()).expect("serialize NetStats");
        (fnv1a64(stats.as_bytes()), self.net.stats().events.ejections)
    }
}

/// Shape of a plain (observers-off) kernel workload.
struct Plain {
    designs: Vec<Design>,
    edge: u16,
    tile_threads: usize,
    warm_cycles: u64,
    pass_cycles: u64,
}

/// Step every lane `pass_cycles` per pass, rotating which design goes first
/// so no design always runs on a cold cache. Returns the lanes and the
/// fingerprints taken after the first pass (the pinned checkpoint).
fn run_plain(cx: &mut Cx, shape: &Plain) -> (Vec<Lane>, Vec<(u64, u64)>) {
    let seed = cx.args.seed;
    let mut lanes = cx.setup(|_| {
        shape
            .designs
            .iter()
            .map(|&d| {
                let mut lane = Lane::build(d, shape.edge, LOAD, seed, shape.tile_threads);
                lane.run(shape.warm_cycles);
                lane
            })
            .collect::<Vec<Lane>>()
    });
    let n = lanes.len();
    let work = lanes.iter().map(Lane::nodes).sum::<f64>() * shape.pass_cycles as f64;
    let mut checkpoint = Vec::new();

    cx.begin_timed();
    while cx.next_pass() {
        let first = cx.passes_done() % n;
        let t0 = Instant::now();
        {
            let pass = cx.tracer.span("pass", None);
            for i in 0..n {
                let lane = &mut lanes[(first + i) % n];
                let _call = cx.tracer.span(
                    &format!("Network::run_cycles:{}", design_key(lane.design)),
                    pass.id(),
                );
                lane.run(shape.pass_cycles);
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        cx.pass(work, wall);
        cx.ops(n as u64);
        if checkpoint.is_empty() {
            checkpoint = lanes.iter().map(Lane::fingerprint).collect();
        }
    }
    cx.end_timed();

    for (lane, (fp, flits)) in lanes.iter().zip(&checkpoint) {
        let key = design_key(lane.design);
        cx.check(*flits > 0, || {
            format!("{key}: no flit delivered by the first pass")
        });
        cx.pin(key, *fp, *flits);
    }
    (lanes, checkpoint)
}

/// Per-design `kernel.<d>.node_cycles_per_s` from the `run_cycles` spans.
fn layer_rates_from_spans(cx: &mut Cx, lanes: &[Lane], pass_cycles: u64) {
    let spans = cx.tracer.finished();
    for lane in lanes {
        let key = design_key(lane.design);
        let node_cycles = lane.nodes() * pass_cycles as f64;
        let rates: Vec<f64> = span::durations_ms(&spans, &format!("Network::run_cycles:{key}"))
            .iter()
            .map(|ms| node_cycles / (ms / 1e3))
            .collect();
        cx.layer(
            format!("kernel.{key}.node_cycles_per_s"),
            stats::median(&rates),
        );
    }
}

/// `kernel_8x8`: all eleven designs on the paper's mesh, sequential engine.
pub fn kernel_8x8(cx: &mut Cx) {
    let shape = Plain {
        designs: DESIGNS.iter().map(|(d, _)| *d).collect(),
        edge: 8,
        tile_threads: 0,
        warm_cycles: 500,
        pass_cycles: if cx.args.smoke { 100 } else { 300 },
    };
    let (lanes, _) = run_plain(cx, &shape);

    // Any seed: stepping in passes must equal one uninterrupted run. One
    // design per run (chosen by the seed) keeps the check to about a tenth
    // of the timed work.
    let pick = (cx.args.seed % lanes.len() as u64) as usize;
    let lane = &lanes[pick];
    let mut replay = Lane::build(lane.design, shape.edge, LOAD, cx.args.seed, 0);
    replay.run(lane.net.cycle());
    let key = design_key(lane.design);
    cx.check(replay.fingerprint() == lane.fingerprint(), || {
        format!(
            "{key}: {} cycles in passes differ from one uninterrupted run",
            lane.net.cycle()
        )
    });

    if cx.args.trace {
        layer_rates_from_spans(cx, &lanes, shape.pass_cycles);
        drop(lanes);
        probes::kernel_8x8(cx);
    }
}

/// `kernel_64x64_tiled`: two designs on a mesh that does not fit in cache,
/// stepped by two tile workers.
pub fn kernel_64x64_tiled(cx: &mut Cx) {
    let shape = Plain {
        designs: vec![Design::DXbarDor, Design::Scarab],
        edge: if cx.args.smoke { 16 } else { 64 },
        tile_threads: 2,
        warm_cycles: 50,
        pass_cycles: if cx.args.smoke { 20 } else { 50 },
    };
    let (lanes, checkpoint) = run_plain(cx, &shape);
    if cx.args.trace {
        layer_rates_from_spans(cx, &lanes, shape.pass_cycles);
    }
    drop(lanes);

    // Any seed: the tiled engine must be bit-identical to the sequential
    // sweep. The twin replays set-up plus the first pass.
    for (&design, tiled) in shape.designs.iter().zip(&checkpoint) {
        let mut twin = Lane::build(design, shape.edge, LOAD, cx.args.seed, 0);
        twin.run(shape.warm_cycles + shape.pass_cycles);
        let key = design_key(design);
        cx.check(twin.fingerprint() == *tiled, || {
            format!("{key}: 2 tile workers and the sequential engine disagree")
        });
    }

    if cx.args.trace {
        probes::kernel_64x64(cx);
    }
}

/// Designs of the observed workload: one per router family that emits
/// probes or trace events differently.
const OBSERVED: [Design; 4] = [
    Design::DXbarDor,
    Design::Buffered4,
    Design::FlitBless,
    Design::Scarab,
];

/// One pass of the observed workload; returns (design key, stats
/// fingerprint, flits) per design, and counts the checks it makes.
fn observed_pass(
    cx: &mut Cx,
    cfg: &SimConfig,
    parent: Option<u32>,
) -> Vec<(&'static str, u64, u64)> {
    let mesh = Mesh::for_config(cfg);
    let mut rows = Vec::new();
    for design in OBSERVED {
        let key = design_key(design);
        let verified = {
            let _s = cx
                .tracer
                .span(&format!("run_synthetic_verified:{key}"), parent);
            run_synthetic_verified(
                design,
                cfg,
                Pattern::UniformRandom,
                LOAD,
                &FaultPlan::none(&mesh),
            )
        };
        let (traced, sink) = {
            let _s = cx
                .tracer
                .span(&format!("run_synthetic_traced:{key}"), parent);
            // Keep every event; sample the time series every 16th cycle.
            run_synthetic_traced(
                design,
                cfg,
                Pattern::UniformRandom,
                LOAD,
                RecordingSink::new(0, 16),
            )
        };
        let fp = |r: &dxbar_noc::RunResult| {
            fnv1a64(
                serde_json::to_string(&r.stats)
                    .expect("serialize NetStats")
                    .as_bytes(),
            )
        };
        let traced_fp = fp(&traced);
        match verified {
            Ok((result, report)) => {
                cx.check(report.is_clean(), || {
                    format!("{key}: oracle violations in a clean run")
                });
                cx.check(fp(&result) == traced_fp, || {
                    format!("{key}: verified and traced runs simulated different traffic")
                });
            }
            Err(e) => cx.check(false, || {
                format!("{key}: {} oracle violation(s)", e.report.total_violations)
            }),
        }
        cx.check(sink.recorder.total_seen() > 0, || {
            format!("{key}: trace sink saw no event")
        });
        rows.push((key, traced_fp, traced.stats.events.ejections));
    }
    rows
}

/// `kernel_8x8_observed`: the same kernel used differently — observer seam,
/// probes, trace sink, forced sequential path.
pub fn kernel_8x8_observed(cx: &mut Cx) {
    let cfg = if cx.args.smoke {
        SimConfig {
            warmup_cycles: 50,
            measure_cycles: 150,
            drain_cycles: 50,
            seed: cx.args.seed,
            ..SimConfig::default()
        }
    } else {
        SimConfig {
            warmup_cycles: 250,
            measure_cycles: 1_000,
            drain_cycles: 250,
            seed: cx.args.seed,
            ..SimConfig::default()
        }
    };
    // Each run builds its own network, so set-up is one untimed pass: it
    // warms the allocator and yields the reference every pass must repeat.
    let reference = cx.setup(|cx| observed_pass(cx, &cfg, None));
    let work = (OBSERVED.len() * 2) as f64 * cfg.total_cycles() as f64 * cfg.num_nodes() as f64;

    let tracer = cx.tracer.clone();
    cx.begin_timed();
    while cx.next_pass() {
        let t0 = Instant::now();
        let rows = {
            let pass = tracer.span("pass", None);
            observed_pass(cx, &cfg, pass.id())
        };
        let wall = t0.elapsed().as_secs_f64();
        cx.pass(work, wall);
        cx.check(rows == reference, || {
            "a pass did not repeat the set-up pass's results".into()
        });
    }
    cx.end_timed();

    for (key, fp, flits) in reference {
        cx.pin(key, fp, flits);
    }
    if cx.args.trace {
        probes::observers(cx, &cfg);
    }
}
