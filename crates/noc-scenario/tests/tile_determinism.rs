//! Worker count is invisible on scenario fabrics too: torus and
//! concentrated-mesh topologies (whose wraparound / concentration links
//! cross tile seams in ways a plain mesh never produces) and heterogeneous
//! router mixes must be byte-identical at every tile-worker count, traced
//! or not. The reference is one worker (one tile, stepped inline); a
//! worker count of 0 is an alias of it. Worker counts travel in the plan.

use dxbar_noc::{run, Design, RunOutput};
use noc_core::SimConfig;
use noc_scenario::{ScenarioRun, ScenarioSpec};
use noc_sim::noc_trace::{to_jsonl, RecordingSink};

/// One scenario point at load 0.3 on `workers` tile workers, traced or not.
fn scenario_on(
    design: Design,
    cfg: &SimConfig,
    spec: &ScenarioSpec,
    workers: usize,
    sink: Option<RecordingSink>,
) -> RunOutput {
    ScenarioRun::new(design, cfg, spec, 0.3)
        .expect("scenario runs")
        .run_with(|mut plan| {
            plan.trace = sink;
            run(plan.tile_threads(workers))
        })
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
        let run = |workers| {
            let r = scenario_on(Design::FlitBless, &cfg, &spec, workers, None).result;
            serde_json::to_string(&r).expect("serialize RunResult")
        };
        let reference = run(1);
        for workers in [0usize, 2, 4, 8] {
            let tiled = run(workers);
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
    let run = |workers| {
        let sink = Some(RecordingSink::new(0, 1));
        let out = scenario_on(Design::DXbarDor, &cfg, &spec, workers, sink);
        let sink = out.trace.expect("traced plan");
        (
            to_jsonl(sink.recorder.iter()),
            serde_json::to_string(&sink.series).expect("serialize samples"),
            serde_json::to_string(&out.result).expect("serialize RunResult"),
        )
    };
    let reference = run(1);
    assert!(!reference.0.is_empty());
    for workers in [2usize, 4, 8] {
        assert!(
            run(workers) == reference,
            "traced torus_ur at {workers} tile workers diverged from one"
        );
    }
}
