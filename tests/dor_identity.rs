//! Under dimension-order routing the dual crossbar and the unified
//! crossbar never decide differently: a DXbar-DOR run and a Unified-DOR
//! run of the same plan are equal except for the design name, which
//! crossbar counter the traversals land in, and the crossbar energy that
//! follows from it.

use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, RunResult, SimConfig};

/// `r` with the fields the two designs may differ in folded together:
/// no name, one crossbar counter, no crossbar energy.
fn normalized(mut r: RunResult) -> String {
    r.design.clear();
    r.avg_packet_energy_nj = 0.0;
    r.energy.crossbar_pj = 0.0;
    for ev in [&mut r.stats.events, &mut r.stats.events_at_window_start] {
        ev.xbar_traversals += std::mem::take(&mut ev.unified_xbar_traversals);
    }
    serde_json::to_string(&r).expect("serialize RunResult")
}

#[test]
fn dxbar_dor_and_unified_dor_are_one_design() {
    let patterns = [
        Pattern::UniformRandom,
        Pattern::NonUniformRandom,
        Pattern::Tornado,
        Pattern::BitReversal,
        Pattern::Complement,
    ];
    let mut pairs = 0;
    for (width, height) in [(4, 4), (3, 5), (8, 8)] {
        for seed in [1, 7] {
            let cfg = SimConfig {
                width,
                height,
                warmup_cycles: 100,
                measure_cycles: 300,
                drain_cycles: 200,
                seed,
                ..SimConfig::default()
            };
            let mesh = Mesh::for_config(&cfg);
            for pattern in patterns {
                if pattern.check(&mesh).is_err() {
                    continue;
                }
                for load in [0.2, 1.0] {
                    let of = |design| run(RunPlan::synthetic(design, &cfg, pattern, load)).result;
                    let (dual, unified) = (of(Design::DXbarDor), of(Design::UnifiedDor));
                    let case = format!("{width}x{height} seed {seed} {pattern:?} @ {load}");
                    assert!(dual.stats.events.xbar_traversals > 0, "{case}");
                    assert_eq!(dual.stats.events.unified_xbar_traversals, 0, "{case}");
                    assert_eq!(unified.stats.events.xbar_traversals, 0, "{case}");
                    assert_eq!(normalized(dual), normalized(unified), "{case}");
                    pairs += 1;
                }
            }
        }
    }
    assert_eq!(pairs, 2 * 2 * (5 + 3 + 5));
}
