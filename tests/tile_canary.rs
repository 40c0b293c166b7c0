//! Mutation canary for the worker-count equivalence suite.
//!
//! `DXBAR_TILE_CANARY=1` makes the engine's commit phase flush seam
//! *credits* one cycle late — the classic double-buffer bug (draining the
//! outbox after the swap instead of before it). The per-tile work is
//! still correct and no data is lost; only cross-seam flow-control timing
//! skews, which is precisely the kind of regression a tiled engine could
//! silently introduce. If the equivalence tests could not catch that bug,
//! byte-identical results would be a vacuous guarantee. This test proves
//! they can: on a credit-flow-controlled design (dxbar DOR) under load,
//! stale seam credits stall upstream routers a cycle longer and the run
//! must produce a *different* result. One tile has no seams, so there the
//! mutant must be inert — which is what makes one tile the reference.
//!
//! Why not seed a commit-*ordering* bug instead? Because a `RunResult`
//! cannot see commit order: its statistics are sums/min/max/buckets, and
//! same-cycle drops of one source always sit at distinct hop distances,
//! so their retransmits never share a due cycle and the retransmit FIFO's
//! tie-break never fires. (The traced and verified matrices of
//! `tile_determinism.rs` are what pin order.) A canary must seed a bug
//! that *can* change the output it is compared on.
//!
//! Lives in its own integration-test binary because the canary is a
//! process-wide environment variable.

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};

fn dxbar_json(tiles: usize, canary: bool) -> String {
    std::env::set_var("DXBAR_TILE_THREADS", tiles.to_string());
    if canary {
        std::env::set_var("DXBAR_TILE_CANARY", "1");
    }
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 300,
        measure_cycles: 4000,
        drain_cycles: 500,
        seed: 13,
        ..SimConfig::default()
    };
    let plan = RunPlan::synthetic(Design::DXbarDor, &cfg, Pattern::UniformRandom, 0.6);
    let r = run(plan).result;
    std::env::remove_var("DXBAR_TILE_THREADS");
    std::env::remove_var("DXBAR_TILE_CANARY");
    serde_json::to_string(&r).expect("serialize RunResult")
}

#[test]
fn seeded_seam_flush_bug_is_caught_by_equivalence_check() {
    let one_tile = dxbar_json(1, false);
    let healthy = dxbar_json(4, false);
    assert_eq!(
        healthy, one_tile,
        "sanity: the healthy engine must not see the worker count"
    );

    // The canary only corrupts seam flushes; a one-tile run has none and
    // is untouched even with the variable set.
    let one_tile_canary = dxbar_json(1, true);
    assert_eq!(
        one_tile_canary, one_tile,
        "canary must be inert on one tile"
    );

    let broken = dxbar_json(4, true);
    assert_ne!(
        broken, one_tile,
        "the seeded stale-seam-credit bug went undetected — the \
         equivalence suite would miss a real commit-phase regression"
    );
}
