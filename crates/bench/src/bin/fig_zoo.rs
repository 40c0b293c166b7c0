//! Router-zoo cross-architecture figure: average packet latency, accepted
//! throughput and deflection rate vs. offered load (UR, 8x8) for every
//! router family in the repo — the paper's bufferless, buffered and
//! crossbar designs next to AFC, the shared-buffer DAMQ and the
//! minimally-buffered MinBD.
//!
//! With `DXBAR_SEEDS > 1` each point carries a ±95% CI over the seed
//! replicates (the `render_series_ci` text blocks).
//!
//! ```text
//! cargo run --release -p bench --bin fig_zoo
//! ```

use bench::svg::{line_chart, Series};
use bench::{emit, emit_svg, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::{render_series, render_series_ci};
use dxbar_noc::RunResult;
use noc_campaign::Aggregate;

/// (metric name, y-axis label, extractor).
type Metric = (&'static str, &'static str, fn(&RunResult) -> f64);

const METRICS: [Metric; 3] = [
    ("latency", "avg packet latency (cycles)", |r| {
        r.avg_packet_latency
    }),
    ("throughput", "accepted load", |r| r.accepted_fraction),
    ("deflection rate", "deflections per packet", |r| {
        r.deflections_per_packet
    }),
];

const GROUP: &str = "zoo_ur";
const XLABEL: &str = "offered load (fraction of capacity)";

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::zoo();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();
    let ci_mode = multi_seed();

    let mut designs: Vec<String> = Vec::new();
    for a in aggs.iter().filter(|a| a.group == GROUP) {
        if !designs.contains(&a.design) {
            designs.push(a.design.clone());
        }
    }

    let mut text = String::new();
    for design in &designs {
        let mut rows: Vec<&Aggregate> = aggs
            .iter()
            .filter(|a| a.group == GROUP && &a.design == design)
            .collect();
        rows.sort_by(|a, b| a.x.total_cmp(&b.x));
        for (name, ylabel, metric) in METRICS {
            let title = format!("ZOO {name} — {design}");
            if ci_mode {
                let pts: Vec<(f64, f64, f64)> = rows
                    .iter()
                    .map(|a| {
                        let s = a.summary(metric);
                        (a.x, s.mean, s.ci95)
                    })
                    .collect();
                text.push_str(&render_series_ci(&title, XLABEL, ylabel, &pts));
            } else {
                let pts: Vec<(f64, f64)> = rows.iter().map(|a| (a.x, a.mean(metric))).collect();
                text.push_str(&render_series(&title, XLABEL, ylabel, &pts));
            }
        }
        text.push('\n');
    }

    // Saturation summary: the lowest load at which a design's average
    // latency exceeds 3x its own zero-load latency (or "-" if it never
    // does inside the swept range).
    for design in &designs {
        let mut rows: Vec<&Aggregate> = aggs
            .iter()
            .filter(|a| a.group == GROUP && &a.design == design)
            .collect();
        rows.sort_by(|a, b| a.x.total_cmp(&b.x));
        if let Some(base) = rows.first().map(|a| a.mean(|r| r.avg_packet_latency)) {
            let sat = rows
                .iter()
                .find(|a| a.mean(|r| r.avg_packet_latency) > 3.0 * base)
                .map(|a| format!("{:.2}", a.x))
                .unwrap_or_else(|| "-".into());
            text.push_str(&format!(
                "# {design}: zero-load latency {base:.1} cycles, 3x-latency load {sat}\n"
            ));
        }
    }
    text.push('\n');

    for (name, ylabel, metric) in METRICS {
        let chart: Vec<Series> = designs
            .iter()
            .map(|design| {
                let mut rows: Vec<&Aggregate> = aggs
                    .iter()
                    .filter(|a| a.group == GROUP && &a.design == design)
                    .collect();
                rows.sort_by(|a, b| a.x.total_cmp(&b.x));
                Series {
                    name: design.clone(),
                    points: rows.iter().map(|a| (a.x, a.mean(metric))).collect(),
                }
            })
            .collect();
        emit_svg(
            &format!("zoo_{}", name.replace(' ', "_")),
            &line_chart(
                &format!("Router zoo — {ylabel} vs offered load"),
                XLABEL,
                ylabel,
                &chart,
            ),
        );
    }

    emit("fig_zoo", &text, &report.results());
    exit_on_failures(&report);
}
