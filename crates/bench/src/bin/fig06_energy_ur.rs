//! Figure 6 — average energy per packet vs offered load, uniform random
//! traffic.
//!
//! Paper shape to match: the bufferless designs are cheapest at zero load
//! but blow up near/after saturation (Flit-Bless ~3X, SCARAB ~2X); the
//! buffered baselines are flat and high (they buffer every flit); DXbar is
//! cheapest and nearly flat (only a small fraction of flits ever buffer).
//!
//! The campaign grid is identical to Figure 5's, so with a shared
//! `DXBAR_CACHE` the sweep is only ever simulated once.
//!
//! ```text
//! cargo run --release -p bench --bin fig06_energy_ur
//! ```

use bench::svg::{line_chart, Series};
use bench::{all_designs, emit, emit_svg, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::{render_series, render_series_ci};

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::fig06();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();

    let mut text = String::from("FIGURE 6 — Energy of Uniform Random traffic\n");
    let ci_mode = multi_seed();
    for design in all_designs() {
        let rows: Vec<_> = aggs.iter().filter(|a| a.design == design.name()).collect();
        let series: Vec<(f64, f64)> = rows
            .iter()
            .map(|a| (a.x, a.mean(|r| r.avg_packet_energy_nj)))
            .collect();
        if ci_mode {
            let triples: Vec<(f64, f64, f64)> = rows
                .iter()
                .map(|a| {
                    let s = a.summary(|r| r.avg_packet_energy_nj);
                    (a.x, s.mean, s.ci95)
                })
                .collect();
            text.push_str(&render_series_ci(
                design.name(),
                "offered load",
                "average energy (nJ/packet)",
                &triples,
            ));
        } else {
            text.push_str(&render_series(
                design.name(),
                "offered load",
                "average energy (nJ/packet)",
                &series,
            ));
        }
        let low = series.first().map(|&(_, y)| y).unwrap_or(0.0);
        let high = series.last().map(|&(_, y)| y).unwrap_or(0.0);
        text.push_str(&format!(
            "# zero-load {low:.3} nJ -> high-load {high:.3} nJ ({:.2}x)\n\n",
            if low > 0.0 { high / low } else { 0.0 }
        ));
    }

    let chart: Vec<Series> = all_designs()
        .iter()
        .map(|d| Series {
            name: d.name().to_string(),
            points: aggs
                .iter()
                .filter(|a| a.design == d.name())
                .map(|a| (a.x, a.mean(|r| r.avg_packet_energy_nj)))
                .collect(),
        })
        .collect();
    emit_svg(
        "fig06_energy_ur",
        &line_chart(
            "Fig. 6 — Energy per packet, uniform random (8x8 mesh)",
            "offered load (fraction of capacity)",
            "average energy (nJ/packet)",
            &chart,
        ),
    );

    emit("fig06_energy_ur", &text, &report.results());
    exit_on_failures(&report);
}
