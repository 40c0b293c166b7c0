//! Figures 9 & 10 — normalized execution time and energy for the nine
//! SPLASH-2 applications (closed-loop coherence workload model; see
//! DESIGN.md for the substitution of the paper's Simics/GEMS traces).
//!
//! Paper shape to match: DXbar DOR beats DXbar WF; DXbar achieves the best
//! execution time for most applications (the bufferless designs keep up
//! and can edge it out on FFT-like traces); Flit-Bless and SCARAB pay much
//! more energy than DXbar; DXbar saves energy over the buffered baselines.
//!
//! ```text
//! cargo run --release -p bench --bin fig09_10_splash
//! ```

use bench::svg::bar_chart;
use bench::{emit, emit_svg, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::render_bars;
use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::{Design, RunResult};
use noc_campaign::{Aggregate, WorkloadAxis};

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::fig09_10();
    let WorkloadAxis::Splash { apps, .. } = spec.groups[0].workload.clone() else {
        unreachable!("fig09_10 is a SPLASH campaign");
    };
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();
    let designs = Design::PAPER_SET;
    let names: Vec<&str> = designs.iter().map(|d| d.name()).collect();

    let find = |app: SplashApp, d: Design| -> &Aggregate {
        aggs.iter()
            .find(|a| a.design == d.name() && a.workload == app.name())
            .expect("run exists")
    };
    let finish = |r: &RunResult| r.finish_cycle.map(|c| c as f64).unwrap_or(f64::NAN);
    let energy_uj = |r: &RunResult| r.energy.total_pj() / 1e6;

    // Fig. 9: execution time normalized to the Buffered 4 baseline.
    let time_rows: Vec<(String, Vec<f64>)> = apps
        .iter()
        .map(|&app| {
            let base = find(app, Design::Buffered4).mean(finish);
            let vals = designs
                .iter()
                .map(|&d| find(app, d).mean(finish) / base)
                .collect();
            (app.name().to_string(), vals)
        })
        .collect();

    // Fig. 10: whole-run network energy, microjoules.
    let energy_rows: Vec<(String, Vec<f64>)> = apps
        .iter()
        .map(|&app| {
            let vals = designs
                .iter()
                .map(|&d| find(app, d).mean(energy_uj))
                .collect();
            (app.name().to_string(), vals)
        })
        .collect();

    let mut text = String::new();
    text.push_str(&render_bars(
        "FIGURE 9 — Normalized execution time of SPLASH-2 traces (vs Buffered 4)",
        &names,
        &time_rows,
    ));
    text.push('\n');
    text.push_str(&render_bars(
        "FIGURE 10 — Energy consumed on SPLASH-2 traces (uJ)",
        &names,
        &energy_rows,
    ));
    if multi_seed() {
        let time_ci: Vec<(String, Vec<f64>)> = apps
            .iter()
            .map(|&app| {
                let base = find(app, Design::Buffered4).mean(finish);
                let vals = designs
                    .iter()
                    .map(|&d| find(app, d).summary(finish).ci95 / base)
                    .collect();
                (app.name().to_string(), vals)
            })
            .collect();
        let energy_ci: Vec<(String, Vec<f64>)> = apps
            .iter()
            .map(|&app| {
                let vals = designs
                    .iter()
                    .map(|&d| find(app, d).summary(energy_uj).ci95)
                    .collect();
                (app.name().to_string(), vals)
            })
            .collect();
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 9 — Normalized execution time (95% CI half-width)",
            &names,
            &time_ci,
        ));
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 10 — Energy (95% CI half-width, uJ)",
            &names,
            &energy_ci,
        ));
    }

    // Headline ratios the paper quotes.
    let mut bless_ratio: f64 = 0.0;
    let mut scarab_ratio: f64 = 0.0;
    for &app in &apps {
        let dx = find(app, Design::DXbarDor).mean(|r| r.energy.total_pj());
        bless_ratio =
            bless_ratio.max(find(app, Design::FlitBless).mean(|r| r.energy.total_pj()) / dx);
        scarab_ratio =
            scarab_ratio.max(find(app, Design::Scarab).mean(|r| r.energy.total_pj()) / dx);
    }
    text.push_str(&format!(
        "\n# max energy ratio vs DXbar DOR: Flit-Bless {bless_ratio:.1}x (paper: >=16x), SCARAB {scarab_ratio:.1}x (paper: >=2x)\n"
    ));

    let cats: Vec<String> = apps.iter().map(|a| a.name().to_string()).collect();
    let snames: Vec<String> = designs.iter().map(|d| d.name().to_string()).collect();
    emit_svg(
        "fig09_exec_time_splash",
        &bar_chart(
            "Fig. 9 — Normalized execution time, SPLASH-2 (vs Buffered 4)",
            "normalized execution time",
            &cats,
            &snames,
            &time_rows.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>(),
        ),
    );
    emit_svg(
        "fig10_energy_splash",
        &bar_chart(
            "Fig. 10 — Energy, SPLASH-2 (uJ)",
            "energy (uJ)",
            &cats,
            &snames,
            &energy_rows
                .iter()
                .map(|(_, v)| v.clone())
                .collect::<Vec<_>>(),
        ),
    );

    emit("fig09_10_splash", &text, &report.results());
    exit_on_failures(&report);
}
