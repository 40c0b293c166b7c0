//! Worker count is invisible on scenario fabrics too: torus and
//! concentrated-mesh topologies (whose wraparound / concentration links
//! cross tile seams in ways a plain mesh never produces) and heterogeneous
//! router mixes must be byte-identical at every tile-worker count, traced
//! or not. The reference is one worker (one tile, stepped inline);
//! `DXBAR_TILE_THREADS=0` is an alias of it.
//!
//! Worker counts are selected through the process-wide
//! `DXBAR_TILE_THREADS` variable, so every run holds `ENV_LOCK`.

use dxbar_noc::Design;
use noc_core::SimConfig;
use noc_scenario::{run_scenario, run_scenario_traced, ScenarioSpec};
use noc_sim::noc_trace::{to_jsonl, RecordingSink};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_tiles<R>(tiles: usize, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("DXBAR_TILE_THREADS", tiles.to_string());
    let r = f();
    std::env::remove_var("DXBAR_TILE_THREADS");
    r
}

fn cfg() -> SimConfig {
    SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 200,
        measure_cycles: 800,
        drain_cycles: 300,
        seed: 21,
        ..SimConfig::default()
    }
}

#[test]
fn scenario_fabrics_match_sequential_at_every_worker_count() {
    let cfg = cfg();
    // torus_ur: wrap links connect opposite seam edges of the tile grid;
    // cmesh_ur: concentrated mesh re-shapes the node grid entirely;
    // mixed_islands: DAMQ/MinBD islands inside a bufferless fabric put
    // different RouterKinds on the two sides of a seam.
    for scenario in ["torus_ur", "cmesh_ur", "mixed_islands"] {
        let spec = ScenarioSpec::resolve(scenario, &cfg).expect("known scenario");
        let run = || {
            let r = run_scenario(Design::FlitBless, &cfg, &spec, 0.3).expect("scenario runs");
            serde_json::to_string(&r).expect("serialize RunResult")
        };
        let reference = with_tiles(1, run);
        for workers in [0usize, 2, 4, 8] {
            let tiled = with_tiles(workers, run);
            assert_eq!(
                tiled, reference,
                "{scenario} at {workers} tile workers diverged from one"
            );
        }
    }
}

#[test]
fn traced_scenario_matches_at_every_worker_count() {
    // Wrap links make a torus seam carry traffic in both directions
    // between the first and last tile column, so the event stream's
    // node-order replay is exercised across non-adjacent shards.
    let cfg = cfg();
    let spec = ScenarioSpec::resolve("torus_ur", &cfg).expect("known scenario");
    let run = || {
        let (r, sink) =
            run_scenario_traced(Design::DXbarDor, &cfg, &spec, 0.3, RecordingSink::new(0, 1))
                .expect("scenario runs");
        (
            to_jsonl(sink.recorder.iter()),
            serde_json::to_string(&sink.series).expect("serialize samples"),
            serde_json::to_string(&r).expect("serialize RunResult"),
        )
    };
    let reference = with_tiles(1, run);
    assert!(!reference.0.is_empty());
    for workers in [2usize, 4, 8] {
        assert!(
            with_tiles(workers, run) == reference,
            "traced torus_ur at {workers} tile workers diverged from one"
        );
    }
}
