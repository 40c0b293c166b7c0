//! Graceful-degradation figures of the resilience layer: delivered
//! throughput, sanctioned packet loss and recovery latency as fault
//! intensity grows, for one representative design per family.
//!
//! Two sweeps at a fixed moderate load (UR @ 0.3):
//!
//! * transient soft errors (payload corruption / flit drops in transit) at
//!   rates of 0 to 2e-3 events per link-cycle;
//! * permanent link faults, 0 to 4 dead physical channels (placed so the
//!   mesh stays connected).
//!
//! Every faulty point runs with per-flit CRC at ejection and the NI
//! retransmission protocol armed, so "packet loss" here means the NI
//! exhausted its retry budget — the sanctioned, counted loss the paper's
//! fault-tolerance argument degrades into, not silent corruption.
//!
//! ```text
//! cargo run --release -p bench --bin fig_resilience
//! ```

use bench::svg::{line_chart, Series};
use bench::{emit, emit_svg, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::{render_series, render_series_ci};
use dxbar_noc::RunResult;
use noc_campaign::Aggregate;

/// Sanctioned loss as a fraction of unique (non-retransmit) flits injected.
fn loss_fraction(r: &RunResult) -> f64 {
    let e = &r.stats.events;
    let unique = e
        .injections
        .saturating_sub(e.ni_retransmits)
        .saturating_sub(e.retransmissions);
    if unique == 0 {
        0.0
    } else {
        r.lost_flits as f64 / unique as f64
    }
}

/// (metric name, y-axis label, extractor).
type Metric = (&'static str, &'static str, fn(&RunResult) -> f64);
/// (campaign group, x-axis label, intensity accessor).
type Sweep = (&'static str, &'static str, fn(&Aggregate) -> f64);

const METRICS: [Metric; 3] = [
    ("throughput", "accepted load", |r| r.accepted_fraction),
    ("packet loss", "lost flit fraction", loss_fraction),
    ("recovery latency", "avg recovery latency (cycles)", |r| {
        r.avg_recovery_latency
    }),
];

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::resilience();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();
    let ci_mode = multi_seed();

    // The two sweeps differ only in their x-axis: the transient group's
    // intensity is the soft-error rate, the link group's the dead-channel
    // count.
    let sweeps: [Sweep; 2] = [
        (
            "resilience_transients",
            "transient rate (events/link-cycle)",
            |a| a.transient_rate,
        ),
        ("resilience_links", "dead links", |a| {
            a.link_fault_count as f64
        }),
    ];

    let mut text = String::new();
    for (group, xlabel, x_of) in sweeps {
        let mut designs: Vec<String> = Vec::new();
        for a in aggs.iter().filter(|a| a.group == group) {
            if !designs.contains(&a.design) {
                designs.push(a.design.clone());
            }
        }
        for design in &designs {
            let mut rows: Vec<&Aggregate> = aggs
                .iter()
                .filter(|a| a.group == group && &a.design == design)
                .collect();
            rows.sort_by(|a, b| x_of(a).total_cmp(&x_of(b)));
            for (name, ylabel, metric) in METRICS {
                let title = format!("RESILIENCE {name} — {design} ({group})");
                if ci_mode {
                    let pts: Vec<(f64, f64, f64)> = rows
                        .iter()
                        .map(|a| {
                            let s = a.summary(metric);
                            (x_of(a), s.mean, s.ci95)
                        })
                        .collect();
                    text.push_str(&render_series_ci(&title, xlabel, ylabel, &pts));
                } else {
                    let pts: Vec<(f64, f64)> =
                        rows.iter().map(|a| (x_of(a), a.mean(metric))).collect();
                    text.push_str(&render_series(&title, xlabel, ylabel, &pts));
                }
            }
            text.push('\n');
        }

        // Degradation summary: throughput retained and loss at the worst
        // intensity of the sweep.
        for design in &designs {
            let rows: Vec<&Aggregate> = aggs
                .iter()
                .filter(|a| a.group == group && &a.design == design)
                .collect();
            let healthy = rows
                .iter()
                .find(|a| x_of(a) == 0.0)
                .map(|a| a.mean(|r| r.accepted_fraction));
            let worst = rows
                .iter()
                .max_by(|a, b| x_of(a).total_cmp(&x_of(b)))
                .filter(|a| x_of(a) > 0.0);
            if let (Some(healthy), Some(worst)) = (healthy, worst) {
                text.push_str(&format!(
                    "# {design} ({group}): throughput {healthy:.3} -> {:.3} at intensity {}, \
                     loss {:.2e}\n",
                    worst.mean(|r| r.accepted_fraction),
                    x_of(worst),
                    worst.mean(loss_fraction),
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
                        .filter(|a| a.group == group && &a.design == design)
                        .collect();
                    rows.sort_by(|a, b| x_of(a).total_cmp(&x_of(b)));
                    Series {
                        name: design.clone(),
                        points: rows.iter().map(|a| (x_of(a), a.mean(metric))).collect(),
                    }
                })
                .collect();
            emit_svg(
                &format!("{group}_{}", name.replace(' ', "_")),
                &line_chart(
                    &format!("Resilience — {ylabel} vs {xlabel}"),
                    xlabel,
                    ylabel,
                    &chart,
                ),
            );
        }
    }

    emit("fig_resilience", &text, &report.results());
    exit_on_failures(&report);
}
