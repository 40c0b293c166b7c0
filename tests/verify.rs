//! End-to-end runtime verification: every design runs clean under the full
//! oracle suite (flit conservation, exclusivity, route legality, FIFO
//! bounds, fairness, watchdog).
//!
//! The quick tests keep tier-1 fast (4x4 mesh, short windows). The
//! `#[ignore]`d acceptance sweep is the PR's full matrix — 8x8, >= 20k
//! cycles, all designs x {0.1, 0.5} load x {0 %, 50 %} faults — run by the
//! CI verify-smoke job with `--release`.

use dxbar_noc::noc_resilience::{ResiliencePlan, TransientSpec};
use dxbar_noc::noc_sim::noc_trace::{to_jsonl, RecordingSink};
use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::{run, Design, RunOutput, RunPlan, SimConfig};
use noc_faults::FaultPlan;
use noc_scenario::{ScenarioRun, ScenarioSpec};
use noc_topology::Mesh;
use noc_traffic::patterns::Pattern;

fn quick_cfg() -> SimConfig {
    SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 200,
        ..SimConfig::default()
    }
}

fn verify_point(design: Design, cfg: &SimConfig, load: f64, faults: &FaultPlan) {
    let plan = RunPlan::synthetic(design, cfg, Pattern::UniformRandom, load);
    let crossbar = ResiliencePlan::none().with_crossbar(faults.clone());
    match run(plan.faults(&crossbar).verified(true)).clean() {
        Ok(RunOutput { result, verify, .. }) => {
            let report = verify.expect("verified plan");
            assert!(
                report.checks.cycles >= cfg.total_cycles(),
                "{}: verifier observed {} of {} cycles",
                design.name(),
                report.checks.cycles,
                cfg.total_cycles()
            );
            assert!(
                report.checks.conservation > 0,
                "{}: conservation oracle never engaged",
                design.name()
            );
            assert!(result.accepted_fraction > 0.0, "{}", design.name());
        }
        Err(e) => panic!(
            "{} at load {load} with {} fault(s): {e}",
            design.name(),
            faults.count()
        ),
    }
}

#[test]
fn all_designs_run_clean_low_load() {
    let cfg = quick_cfg();
    let none = FaultPlan::none(&Mesh::new(4, 4));
    for d in Design::ALL {
        verify_point(d, &cfg, 0.1, &none);
    }
}

#[test]
fn crossbar_designs_run_clean_high_load() {
    let cfg = quick_cfg();
    let none = FaultPlan::none(&Mesh::new(4, 4));
    for d in [
        Design::DXbarDor,
        Design::DXbarWf,
        Design::UnifiedDor,
        Design::UnifiedWf,
        Design::Buffered8,
    ] {
        verify_point(d, &cfg, 0.5, &none);
    }
}

/// FIFOs of 64 and 256 slots (DAMQ's shared slab is 4 x that) are held to
/// their real bounds: no occupancy sample may wrap into a false overflow.
#[test]
fn deep_buffers_run_clean() {
    let none = FaultPlan::none(&Mesh::new(4, 4));
    for buffer_depth in [64, 256] {
        let cfg = SimConfig {
            buffer_depth,
            warmup_cycles: 300,
            measure_cycles: 1_200,
            drain_cycles: 500,
            ..quick_cfg()
        };
        for d in [
            Design::Damq,
            Design::MinBd,
            Design::DXbarDor,
            Design::Buffered4,
        ] {
            verify_point(d, &cfg, 0.4, &none);
        }
    }
}

#[test]
fn dxbar_runs_clean_through_fault_transitions() {
    let cfg = quick_cfg();
    // Faults manifest inside the warmup window so the run exercises the
    // Dormant -> Undetected -> Detected reconfiguration under the oracles.
    let faults = FaultPlan::generate(&Mesh::new(4, 4), 0.5, 50, 150, 9);
    assert!(faults.count() > 0);
    for d in [Design::DXbarDor, Design::DXbarWf] {
        verify_point(d, &cfg, 0.3, &faults);
    }
}

/// Run `plan` with a recording sink and/or the oracle suite attached.
fn observed(plan: RunPlan<'_>, trace: bool, verify: bool) -> RunOutput {
    let mut plan = plan.verified(verify);
    plan.trace = trace.then(|| RecordingSink::new(0, 1));
    let out = run(plan);
    assert_eq!(out.trace.is_some(), trace);
    assert_eq!(out.verify.is_some(), verify);
    out
}

/// One kind of run, given whether to trace and whether to verify it.
type Observed<'a> = &'a dyn Fn(bool, bool) -> RunOutput;

#[test]
fn verified_run_matches_unverified_result() {
    // Observers must not perturb the simulation, nor each other: for
    // every design and every kind of run, the serialized result is
    // byte-equal with the trace sink and the oracle suite each attached or
    // not, and with both attached each records what it records alone.
    let cfg = quick_cfg();
    let transients = ResiliencePlan::none().with_transients(TransientSpec::new(1e-3, 23));
    let scenario = ScenarioSpec::resolve("interfere2", &cfg).expect("known scenario");
    for d in Design::ALL {
        let kinds: [(&str, Observed<'_>); 4] = [
            ("synthetic", &|t, v| {
                observed(
                    RunPlan::synthetic(d, &cfg, Pattern::MatrixTranspose, 0.4),
                    t,
                    v,
                )
            }),
            ("splash", &|t, v| {
                observed(RunPlan::splash(d, &cfg, SplashApp::Fft, 1_000_000), t, v)
            }),
            ("scenario", &|t, v| {
                ScenarioRun::new(d, &cfg, &scenario, 0.3)
                    .expect("valid point")
                    .run_with(|plan| observed(plan, t, v))
            }),
            ("resilient", &|t, v| {
                let plan = RunPlan::synthetic(d, &cfg, Pattern::UniformRandom, 0.1);
                observed(plan.faults(&transients), t, v)
            }),
        ];
        for (kind, run_kind) in kinds {
            let [plain, traced, verified, both] =
                [(false, false), (true, false), (false, true), (true, true)]
                    .map(|(trace, verify)| run_kind(trace, verify));
            let json =
                |out: &RunOutput| serde_json::to_string(&out.result).expect("serialize RunResult");
            for (observers, out) in [("trace", &traced), ("verify", &verified), ("both", &both)] {
                assert!(
                    json(out) == json(&plain),
                    "{} {kind}: {observers} perturbed the result",
                    d.name()
                );
            }
            let recording = |out: &RunOutput| {
                let sink = out.trace.as_ref().expect("traced plan");
                let series = serde_json::to_string(&sink.series).expect("serialize series");
                (
                    to_jsonl(sink.recorder.iter()),
                    series,
                    sink.lifetimes.summary(),
                )
            };
            assert!(
                recording(&both) == recording(&traced),
                "{} {kind}: the oracles perturbed the recording",
                d.name()
            );
            let report = |out: &RunOutput| {
                let r = out.verify.as_ref().expect("verified plan");
                (r.summary(), r.checks, r.flit_counts, r.recovery_counts)
            };
            assert!(
                report(&both) == report(&verified),
                "{} {kind}: the recorder perturbed the oracles",
                d.name()
            );
        }
    }
}

/// The PR's acceptance matrix. ~36 verified 8x8 runs; run with
/// `cargo test --release --test verify -- --ignored`.
#[test]
#[ignore = "full 8x8 acceptance sweep; CI verify-smoke runs it with --release"]
fn acceptance_sweep_8x8_all_designs() {
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 4_000,
        measure_cycles: 12_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    };
    assert!(cfg.total_cycles() >= 20_000);
    let mesh = Mesh::new(8, 8);
    let none = FaultPlan::none(&mesh);
    let half = FaultPlan::generate(&mesh, 0.5, 1_000, 3_000, 13);
    for d in Design::ALL {
        for load in [0.1, 0.5] {
            verify_point(d, &cfg, load, &none);
            if d.supports_faults() {
                verify_point(d, &cfg, load, &half);
            }
        }
    }
}
