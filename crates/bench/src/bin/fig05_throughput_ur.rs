//! Figure 5 — throughput (accepted vs offered load) of uniform random
//! traffic for all six designs on the 8x8 mesh.
//!
//! Paper shape to match: DXbar DOR saturates above 0.4 of capacity
//! (~20 % over Buffered 8, ~40 % over Buffered 4 / Flit-Bless / SCARAB);
//! DXbar WF slightly below DOR but above everything else; the bufferless
//! designs saturate below 0.3.
//!
//! ```text
//! cargo run --release -p bench --bin fig05_throughput_ur
//! ```

use bench::svg::{line_chart, Series};
use bench::{all_designs, emit, emit_svg, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::{render_series, render_series_ci};

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::fig05();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();

    let mut text = String::from("FIGURE 5 — Throughput of Uniform Random traffic\n");
    let ci_mode = multi_seed();
    for design in all_designs() {
        let rows: Vec<_> = aggs.iter().filter(|a| a.design == design.name()).collect();
        let series: Vec<(f64, f64)> = rows
            .iter()
            .map(|a| (a.x, a.mean(|r| r.accepted_fraction)))
            .collect();
        if ci_mode {
            let triples: Vec<(f64, f64, f64)> = rows
                .iter()
                .map(|a| {
                    let s = a.summary(|r| r.accepted_fraction);
                    (a.x, s.mean, s.ci95)
                })
                .collect();
            text.push_str(&render_series_ci(
                design.name(),
                "offered load",
                "accepted load (fraction of capacity)",
                &triples,
            ));
        } else {
            text.push_str(&render_series(
                design.name(),
                "offered load",
                "accepted load (fraction of capacity)",
                &series,
            ));
        }
        let sat = series.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
        text.push_str(&format!("# saturation throughput: {sat:.3}\n\n"));
    }

    let chart: Vec<Series> = all_designs()
        .iter()
        .map(|d| Series {
            name: d.name().to_string(),
            points: aggs
                .iter()
                .filter(|a| a.design == d.name())
                .map(|a| (a.x, a.mean(|r| r.accepted_fraction)))
                .collect(),
        })
        .collect();
    emit_svg(
        "fig05_throughput_ur",
        &line_chart(
            "Fig. 5 — Throughput, uniform random (8x8 mesh)",
            "offered load (fraction of capacity)",
            "accepted load",
            &chart,
        ),
    );

    emit("fig05_throughput_ur", &text, &report.results());
    exit_on_failures(&report);
}
