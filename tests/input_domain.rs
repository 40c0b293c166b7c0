//! The input domain of a run: `RunPlan::validate` either rejects a plan or
//! `run` finishes it without a panic. One table crosses every pattern with
//! router grids of odd, even and power-of-two terminal counts, every
//! topology and loads inside and outside [0, 1]; SPLASH runs on the same
//! fabrics. The designs take turns down the table; a turn-model row on a
//! torus is rejected for its channel-dependency cycle. The fabric rules
//! (crossbar faults, mixed placements) cross every design, and a placement
//! names one design per node.

use dxbar_noc::noc_core::config::Topology;
use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::noc_verify::RouteRule;
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

/// Whether `design` routes a turn model over credit-coupled links on a
/// torus, the one place a channel-dependency cycle may reject it.
fn turn_on_torus(design: Design, cfg: &SimConfig) -> bool {
    let turn = matches!(design.profile(cfg.buffer_depth).route, RouteRule::Turn(_));
    turn && cfg.topology == Topology::Torus
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
                Err(e) if !bindable => assert!(e.contains("power-of-two"), "{case}: {e}"),
                Err(e) => assert!(
                    turn_on_torus(design, &cfg) && e.contains("channel-dependency cycle ("),
                    "{case}: {e}"
                ),
            }
        }
    }
    // The five unconstrained patterns on all 15 fabrics and the four bit
    // permutations on the three 8x8 ones, less the 13 of those 87 cases
    // whose turn-model row closes a cycle on a torus.
    assert_eq!(ran, 5 * 15 + 4 * 3 - 13);
}

#[test]
fn every_splash_plan_is_rejected_or_runs() {
    let apps = SplashApp::ALL.iter().cycle();
    let designs = Design::ALL.iter().rev().cycle();
    let mut ran = 0;
    for ((cfg, &app), &design) in fabrics().zip(apps).zip(designs) {
        let case = format!(
            "{} {} on {}x{} {}",
            design.name(),
            app.name(),
            cfg.width,
            cfg.height,
            cfg.topology.name()
        );
        match rejected_or_runs(RunPlan::splash(design, &cfg, app, 300)) {
            Ok(()) => ran += 1,
            Err(e) => assert!(
                turn_on_torus(design, &cfg) && e.contains("channel-dependency cycle ("),
                "{case}: {e}"
            ),
        }
        let err = rejected_or_runs(RunPlan::splash(design, &cfg, app, 0)).unwrap_err();
        assert!(err.contains("max_cycles"), "{case}: {err}");
    }
    // Every fabric but the 2 tori whose turn-model row closes a cycle.
    assert_eq!(ran, 15 - 2);
}

/// Crossbar faults run on exactly the designs that model them, a mixed
/// placement on exactly the credit-free ones; a plan with no crossbar fault
/// or one design everywhere runs whatever the design.
#[test]
fn fabric_rules_cross_every_design() {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 20,
        measure_cycles: 50,
        drain_cycles: 20,
        ..SimConfig::default()
    };
    let mesh = Mesh::for_config(&cfg);
    let faulty = ResiliencePlan::try_generate(&mesh, 0.5, 0, 0.0, 10, 20, 1).unwrap();
    let fault_free = ResiliencePlan::try_generate(&mesh, 0.01, 0, 0.0, 10, 20, 1).unwrap();
    assert_eq!(
        (faulty.crossbar.count(), fault_free.crossbar.count()),
        (8, 0)
    );
    let synthetic = |design| RunPlan::synthetic(design, &cfg, Pattern::UniformRandom, 0.3);
    for design in Design::ALL {
        let name = design.name();
        match rejected_or_runs(synthetic(design).faults(&faulty)) {
            Ok(()) => assert!(design.supports_faults(), "{name} ran faults"),
            Err(e) => assert!(
                !design.supports_faults() && e.ends_with(&format!("(as in the paper), not {name}")),
                "{name}: {e}"
            ),
        }
        rejected_or_runs(synthetic(design).faults(&fault_free)).expect(name);
        for island in Design::ALL {
            // The island grid of `mixed_islands`: every third router.
            let placement: Vec<Design> = mesh
                .nodes()
                .map(|n| mesh.coord_of(n))
                .map(|c| {
                    if c.x % 3 == 2 && c.y % 3 == 2 {
                        island
                    } else {
                        design
                    }
                })
                .collect();
            let mut plan = synthetic(design);
            plan.placement = Some(&placement);
            let case = format!("{name} + {} islands", island.name());
            let uniform = design == island;
            match rejected_or_runs(plan) {
                Ok(()) => assert!(
                    uniform || design.credit_free() && island.credit_free(),
                    "{case} ran"
                ),
                Err(e) => assert!(
                    !uniform && e.starts_with("mixed fabrics require credit-free designs"),
                    "{case}: {e}"
                ),
            }
        }
    }
}

#[test]
fn a_placement_names_one_design_per_node() {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 20,
        measure_cycles: 50,
        drain_cycles: 20,
        ..SimConfig::default()
    };
    for len in [3, 15, 17] {
        let placement = vec![Design::FlitBless; len];
        let mut plan = RunPlan::synthetic(Design::FlitBless, &cfg, Pattern::UniformRandom, 0.3);
        plan.placement = Some(&placement);
        let err = rejected_or_runs(plan).unwrap_err();
        assert_eq!(err, format!("placement names {len} designs for 16 nodes"));
    }
    let placement = [Design::FlitBless; 16];
    let mut plan = RunPlan::synthetic(Design::FlitBless, &cfg, Pattern::UniformRandom, 0.3);
    plan.placement = Some(&placement);
    rejected_or_runs(plan).unwrap();
}
