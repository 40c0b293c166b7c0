//! The input domain of a run: `RunPlan::validate` either rejects a plan or
//! `run` finishes it without a panic. One table crosses every pattern with
//! router grids of odd, even and power-of-two terminal counts, every
//! topology and loads inside and outside [0, 1]; SPLASH runs on the same
//! fabrics. The designs take turns down the table.

use dxbar_noc::noc_core::config::Topology;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::{run, Design, RunPlan, SimConfig};

const SHAPES: [(u16, u16); 5] = [(2, 3), (3, 5), (4, 6), (6, 6), (8, 8)];
const LOADS: [f64; 4] = [0.3, 1.5, -0.1, f64::NAN];

/// Every fabric of the table, with a short window.
fn fabrics() -> impl Iterator<Item = SimConfig> {
    SHAPES.into_iter().flat_map(|(width, height)| {
        Topology::ALL.into_iter().map(move |topology| SimConfig {
            width,
            height,
            topology,
            warmup_cycles: 20,
            measure_cycles: 50,
            drain_cycles: 20,
            ..SimConfig::default()
        })
    })
}

/// Validate `plan` and, when it is admitted, run it to the end.
fn rejected_or_runs(plan: RunPlan<'_>) -> Result<(), String> {
    plan.validate()?;
    run(plan);
    Ok(())
}

#[test]
fn every_synthetic_plan_is_rejected_or_runs() {
    let designs = Design::ALL.iter().cycle();
    let cases = fabrics().flat_map(|cfg| Pattern::ALL.map(|p| (cfg.clone(), p)));
    let mut ran = 0;
    for ((cfg, pattern), &design) in cases.zip(designs) {
        let terminals = cfg.num_nodes() * usize::from(cfg.topology.concentration());
        for load in LOADS {
            let case = format!(
                "{} {pattern:?} @ {load} on {}x{} {}",
                design.name(),
                cfg.width,
                cfg.height,
                cfg.topology.name()
            );
            let bindable = !pattern.needs_pow2() || terminals.is_power_of_two();
            match rejected_or_runs(RunPlan::synthetic(design, &cfg, pattern, load)) {
                Ok(()) => {
                    assert!(load == 0.3 && bindable, "{case} ran");
                    ran += 1;
                }
                Err(e) if load != 0.3 => assert!(e.contains("load"), "{case}: {e}"),
                Err(e) => assert!(!bindable && e.contains("power-of-two"), "{case}: {e}"),
            }
        }
    }
    // The five unconstrained patterns on all 15 fabrics, the four bit
    // permutations on the three 8x8 ones.
    assert_eq!(ran, 5 * 15 + 4 * 3);
}

#[test]
fn every_splash_plan_is_rejected_or_runs() {
    let apps = SplashApp::ALL.iter().cycle();
    let designs = Design::ALL.iter().rev().cycle();
    for ((cfg, &app), &design) in fabrics().zip(apps).zip(designs) {
        let case = format!(
            "{} {} on {}x{} {}",
            design.name(),
            app.name(),
            cfg.width,
            cfg.height,
            cfg.topology.name()
        );
        rejected_or_runs(RunPlan::splash(design, &cfg, app, 300)).expect(&case);
        let err = rejected_or_runs(RunPlan::splash(design, &cfg, app, 0)).unwrap_err();
        assert!(err.contains("max_cycles"), "{case}: {err}");
    }
}
