//! Worker count is invisible: for every router design and every kind of
//! run — plain, traced, verified, resilient — stepping the mesh in N tiles
//! on N workers must be **byte-identical** to stepping it in one tile
//! inline: same serialized `RunResult`, same trace event stream and
//! time-series samples, same oracle check counts. This is the contract
//! that lets sweeps enable `DXBAR_TILE_THREADS` freely — it is a
//! throughput knob, never a model change, and deliberately not part of the
//! campaign cache key.
//!
//! The reference is one worker: one tile has no seams, no threads and a
//! one-way merge, and its bytes are pinned independently by the golden
//! hashes and `results/`. `DXBAR_TILE_THREADS=0` is an alias of 1 and is
//! pinned as such once. Four workers cut the meshes below into a 2x2 tile
//! grid, where shard order differs from node order — a commit phase that
//! replayed shard-major instead of node-major cannot hide there.
//!
//! Worker counts travel in the plan (`RunPlan::tile_threads`); the
//! `DXBAR_TILE_THREADS` path users take is covered by `tests/cli.rs`,
//! `campaign_tile_threads.rs` and `tile_canary.rs`.

use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_sim::noc_trace::{to_jsonl, RecordingSink};
use dxbar_noc::noc_sim::runner::RunMode;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::{AppParams, SplashApp, SplashTraffic};
use dxbar_noc::{run, Design, RunPlan, RunResult, SimConfig};

/// `run(tiles)` at one worker, then at each of `workers`; every output
/// must equal the one-worker output.
fn assert_worker_count_invisible<T: PartialEq + std::fmt::Debug>(
    what: &str,
    workers: &[usize],
    run: impl Fn(usize) -> T,
) {
    let reference = run(1);
    for &w in workers {
        let tiled = run(w);
        assert!(
            tiled == reference,
            "{what}: {w} tile workers diverged from one"
        );
    }
}

fn json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("serialize RunResult")
}

/// 6x6 (two 3x6 halves at 2 workers, a 2x2 grid at 4, 8 clamps to the
/// feasible grid) and the paper's 8x8; short enough for debug-profile CI.
fn meshes() -> [SimConfig; 2] {
    [6u16, 8].map(|edge| SimConfig {
        width: edge,
        height: edge,
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 200,
        seed: 7,
        ..SimConfig::default()
    })
}

/// `pattern` at `load`, open loop, stepped on `tiles` workers.
fn synthetic(
    design: Design,
    cfg: &SimConfig,
    pattern: Pattern,
    load: f64,
    tiles: usize,
) -> RunPlan<'_> {
    RunPlan::synthetic(design, cfg, pattern, load).tile_threads(tiles)
}

/// One closed-loop SPLASH FFT run to completion, serialized.
fn closed_loop_fft(design: Design, cfg: &SimConfig, params: AppParams, tiles: usize) -> String {
    let mesh = Mesh::for_config(cfg);
    let mut model = SplashTraffic::with_params(SplashApp::Fft, params, mesh, cfg.seed);
    let mode = RunMode::ClosedLoop {
        max_cycles: 2_000_000,
    };
    json(&run(RunPlan::model(design, cfg, &mut model, mode).tile_threads(tiles)).result)
}

#[test]
fn every_design_every_worker_count_matches_sequential() {
    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 300,
        ..meshes()[0].clone()
    };
    let cfg = &cfg;
    for design in Design::ALL {
        // Moderate load: enough traffic for deflections, drops and
        // buffering on every design without saturating the slow ones.
        // The 0 pins "0 is an alias of 1".
        assert_worker_count_invisible(design.name(), &[0, 2, 4, 8], |tiles| {
            json(&run(synthetic(design, cfg, Pattern::MatrixTranspose, 0.3, tiles)).result)
        });
    }
}

#[test]
fn scarab_under_heavy_drops_matches_sequential() {
    // SCARAB's drop/NACK/retransmit path is the most order-sensitive
    // cross-tile effect (the retransmit queue is a FIFO whose sequence
    // numbers encode arrival order), so hammer it specifically.
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 300,
        measure_cycles: 1500,
        drain_cycles: 500,
        seed: 99,
        ..SimConfig::default()
    };
    assert_worker_count_invisible("scarab at 0.6", &[2, 4], |tiles| {
        json(
            &run(synthetic(
                Design::Scarab,
                &cfg,
                Pattern::UniformRandom,
                0.6,
                tiles,
            ))
            .result,
        )
    });
}

#[test]
fn closed_loop_splash_matches_sequential() {
    // Closed-loop runs feed deliveries back into the traffic model
    // (`on_delivered`), so delivery *order* — not just the delivery set —
    // must replay exactly. The commit-phase node-order merge is what
    // makes this hold; this is the test that pins it.
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let params = AppParams {
        issue_prob: 0.08,
        locality: 0.3,
        l2_miss_rate: 0.1,
        txns_per_core: 30,
        burst_len: 4,
    };
    for design in [Design::DXbarDor, Design::Scarab] {
        assert_worker_count_invisible(design.name(), &[2, 4], |tiles| {
            closed_loop_fft(design, &cfg, params, tiles)
        });
    }
}

#[test]
fn saturated_source_queues_match_at_every_worker_count() {
    // The router is offered a by-value copy of its source queue's head,
    // refreshed only where the head changes. Saturation keeps every queue
    // full, so each of those places fires constantly: SCARAB NACKs cut in
    // at the front, the resilient NI reseals the head (`seq` + CRC) before
    // its first offer and pushes ARQ retransmissions in front of sealed
    // and unsealed flits alike, and a lossless closed-loop model grows the
    // queues past their cap. Debug builds also assert head == queue front
    // at every node every cycle (`step_tile`).
    let cfg = SimConfig {
        width: 16,
        height: 16,
        warmup_cycles: 100,
        measure_cycles: 500,
        drain_cycles: 100,
        seed: 11,
        ..SimConfig::default()
    };
    let mesh = Mesh::for_config(&cfg);

    assert_worker_count_invisible("saturated scarab", &[2, 4], |tiles| {
        let r = run(synthetic(
            Design::Scarab,
            &cfg,
            Pattern::UniformRandom,
            0.9,
            tiles,
        ))
        .result;
        assert!(
            r.stats.events.retransmissions > 0,
            "no NACKed flit requeued"
        );
        json(&r)
    });

    let plan = ResiliencePlan::try_generate(&mesh, 0.0, 1, 2e-3, 50, 100, 11).unwrap();
    assert_worker_count_invisible("saturated resilient dxbar-dor", &[2, 4], |tiles| {
        let run_plan = synthetic(Design::DXbarDor, &cfg, Pattern::UniformRandom, 0.9, tiles);
        let r = run(run_plan.faults(&plan)).result;
        let e = &r.stats.events;
        assert!(e.ni_retransmits > 0, "no ARQ retransmission requeued");
        // The offered copy carries the NI's seal: a CRC reject can only
        // come from a corruption in transit, never from a stale seal.
        assert!(e.crc_rejects > 0 && e.crc_rejects <= e.transit_corruptions);
        json(&r)
    });

    let params = AppParams {
        issue_prob: 0.5,
        locality: 0.1,
        l2_miss_rate: 0.5,
        txns_per_core: 12,
        burst_len: 8,
    };
    let closed = SimConfig {
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..cfg.clone()
    };
    assert_worker_count_invisible("lossless splash", &[2, 4], |tiles| {
        closed_loop_fft(Design::DXbarDor, &closed, params, tiles)
    });
}

#[test]
fn traced_runs_match_at_every_worker_count() {
    // The event stream is the most order-sensitive output there is: one
    // line per flit event, in node order within a cycle. SCARAB adds drop
    // events, MinBD deflections and side-buffer traffic.
    for cfg in &meshes() {
        for design in [Design::DXbarDor, Design::Scarab, Design::MinBd] {
            let what = format!("traced {} {}x{}", design.name(), cfg.width, cfg.height);
            assert_worker_count_invisible(&what, &[2, 4, 8], |tiles| {
                let plan = synthetic(design, cfg, Pattern::UniformRandom, 0.3, tiles);
                let out = run(plan.traced(RecordingSink::new(0, 1)));
                let sink = out.trace.expect("traced plan");
                assert!(!sink.recorder.is_empty());
                (
                    to_jsonl(sink.recorder.iter()),
                    serde_json::to_string(&sink.series).expect("serialize samples"),
                    json(&out.result),
                )
            });
        }
    }
}

#[test]
fn verified_runs_match_at_every_worker_count() {
    // The oracles see every router step; their check counts are a
    // fingerprint of what they were shown, and in what quantity.
    for cfg in &meshes() {
        for design in Design::ALL {
            let what = format!("verified {} {}x{}", design.name(), cfg.width, cfg.height);
            assert_worker_count_invisible(&what, &[2, 4, 8], |tiles| {
                let plan = synthetic(design, cfg, Pattern::MatrixTranspose, 0.3, tiles);
                let out = run(plan.verified(true))
                    .clean()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let report = out.verify.expect("verified plan");
                (json(&out.result), report.checks, report.total_violations)
            });
        }
    }
}

#[test]
fn resilient_runs_match_at_every_worker_count() {
    // Transient strikes plus one dead channel: CRC rejects, NACKs, ARQ
    // timeouts, duplicate suppression and loss accounting all fire, and
    // the ACK channel's FIFO tie-break makes send order observable.
    for cfg in &meshes() {
        let cfg = SimConfig {
            drain_cycles: 1_500,
            ..cfg.clone()
        };
        let plan = ResiliencePlan::try_generate(&Mesh::for_config(&cfg), 0.0, 1, 1e-3, 50, 100, 7)
            .unwrap();
        for design in [Design::DXbarWf, Design::Buffered8, Design::FlitBless] {
            let what = format!("resilient {} {}x{}", design.name(), cfg.width, cfg.height);
            assert_worker_count_invisible(&what, &[2, 4, 8], |tiles| {
                let resilient = |verify| {
                    let run_plan = synthetic(design, &cfg, Pattern::UniformRandom, 0.1, tiles);
                    run(run_plan.faults(&plan).verified(verify))
                };
                let plain = resilient(false).result;
                let verified = resilient(true)
                    .clean()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let report = verified.verify.expect("verified plan");
                assert_eq!(
                    json(&plain),
                    json(&verified.result),
                    "{what}: observer perturbed"
                );
                let e = &plain.stats.events;
                assert!(e.crc_rejects + e.ni_retransmits > 0, "{what}: no recovery");
                (
                    json(&plain),
                    (plain.lost_flits, plain.crc_rejects, plain.ni_retransmits),
                    plain.avg_recovery_latency.to_bits(),
                    // Both sides of the accounting identity that
                    // tests/resilience.rs asserts at quiescence.
                    (
                        e.injections - e.ni_retransmits - e.retransmissions,
                        e.ejections - e.crc_rejects - e.duplicates_suppressed + e.flits_lost,
                    ),
                    (report.checks, report.recovery_counts),
                )
            });
        }
    }
}
