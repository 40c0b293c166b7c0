//! Closed-loop SPLASH-2 workload integration (scaled-down versions of the
//! Fig. 9/10 experiments).

use dxbar_noc::noc_sim::runner::RunMode;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::splash::{AppParams, SplashApp, SplashTraffic};
use dxbar_noc::{run, Design, RunPlan, RunResult, SimConfig};

fn tiny_params() -> AppParams {
    AppParams {
        issue_prob: 0.08,
        locality: 0.3,
        l2_miss_rate: 0.1,
        txns_per_core: 30,
        burst_len: 4,
    }
}

fn run_tiny(design: Design) -> RunResult {
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(cfg.width, cfg.height);
    let mut model = SplashTraffic::with_params(SplashApp::Fft, tiny_params(), mesh, cfg.seed);
    let mode = RunMode::ClosedLoop {
        max_cycles: 2_000_000,
    };
    run(RunPlan::model(design, &cfg, &mut model, mode)).result
}

#[test]
fn every_design_completes_the_workload() {
    for design in Design::ALL {
        let r = run_tiny(design);
        assert!(r.completed, "{} did not finish", design.name());
        assert!(r.finish_cycle.unwrap() > 100);
        // 64 cores x 30 transactions, each = request + data (+forwards).
        assert!(
            r.accepted_packets >= 2 * 64 * 30,
            "{}: too few packets",
            design.name()
        );
    }
}

#[test]
fn dxbar_finishes_faster_and_cheaper_than_buffered() {
    // Paper: 15-20 % performance gain and >= 15 % energy saving over the
    // buffered baseline on SPLASH-2 workloads.
    let dxbar = run_tiny(Design::DXbarDor);
    let buffered = run_tiny(Design::Buffered4);
    let t_dx = dxbar.finish_cycle.unwrap() as f64;
    let t_b4 = buffered.finish_cycle.unwrap() as f64;
    assert!(t_dx < 0.95 * t_b4, "DXbar {t_dx} vs Buffered4 {t_b4}");
    assert!(
        dxbar.energy.total_pj() < 0.85 * buffered.energy.total_pj(),
        "DXbar energy {:.0} vs Buffered4 {:.0}",
        dxbar.energy.total_pj(),
        buffered.energy.total_pj()
    );
}

#[test]
fn bufferless_designs_pay_energy_on_the_workload() {
    // Paper: Flit-Bless and SCARAB consume substantially more energy than
    // DXbar on real-application traffic.
    let dxbar = run_tiny(Design::DXbarDor);
    let bless = run_tiny(Design::FlitBless);
    let scarab = run_tiny(Design::Scarab);
    assert!(
        bless.energy.total_pj() > 1.3 * dxbar.energy.total_pj(),
        "BLESS {:.0} vs DXbar {:.0}",
        bless.energy.total_pj(),
        dxbar.energy.total_pj()
    );
    assert!(
        scarab.energy.total_pj() > 1.05 * dxbar.energy.total_pj(),
        "SCARAB {:.0} vs DXbar {:.0}",
        scarab.energy.total_pj(),
        dxbar.energy.total_pj()
    );
    assert!(bless.stats.events.deflections > 0);
    assert!(scarab.stats.events.drops > 0);
}

#[test]
fn all_nine_apps_have_runnable_models() {
    // Smoke-test the per-app parameterizations with an even smaller quota.
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(4, 4);
    for app in SplashApp::ALL {
        let params = AppParams {
            txns_per_core: 10,
            ..app.params()
        };
        let mut model = SplashTraffic::with_params(app, params, mesh, 3);
        let mode = RunMode::ClosedLoop {
            max_cycles: 1_000_000,
        };
        let r = run(RunPlan::model(Design::DXbarDor, &cfg, &mut model, mode)).result;
        assert!(r.completed, "{} stalled", app.name());
    }
}
