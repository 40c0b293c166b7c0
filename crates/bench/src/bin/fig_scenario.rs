//! Scenario-study figure: multi-application interference under bursty
//! background traffic, plus the fabric-variant scenarios (whole-mesh
//! MMPP/Pareto, DAMQ-island mixed fabric, torus, cmesh).
//!
//! The headline panel sweeps the background application's MMPP burstiness
//! in the two-app `interfere2` split and plots, per design:
//!
//! * the foreground and background apps' average packet latency
//!   *separately* (the per-app [`AppStats`] slice), next to the global
//!   aggregate — the gap between the fg curve and the global curve is the
//!   interference the background bursts inflict;
//! * the global deflection rate, which rises with burstiness even at a
//!   fixed mean offered load.
//!
//! ```text
//! cargo run --release -p bench --bin fig_scenario
//! ```

use bench::specs::SCENARIO_BURSTINESS;
use bench::svg::{line_chart, Series};
use bench::{emit, emit_svg, exit_on_failures, run_figure_campaign};
use dxbar_noc::noc_sim::report::render_series;
use dxbar_noc::noc_sim::AppStats;
use noc_campaign::Aggregate;

const GROUP: &str = "scenario_interference";
const FABRICS: &str = "scenario_fabrics";
const XLABEL: &str = "background burstiness (MMPP burst/base ratio)";

/// Mean of one per-app metric over an aggregate's seed replicates.
/// `None` when no replicate carries an app of that name.
fn app_mean(a: &Aggregate, app: &str, metric: fn(&AppStats) -> f64) -> Option<f64> {
    let vals: Vec<f64> = a
        .runs
        .iter()
        .filter_map(|r| r.apps.iter().find(|s| s.name == app).map(metric))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// The burstiness encoded in a parameterized `interfere2:<b>` name.
fn burstiness_of(workload: &str) -> Option<f64> {
    workload.strip_prefix("interfere2:")?.parse().ok()
}

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::scenario();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();

    let mut designs: Vec<String> = Vec::new();
    for a in aggs.iter().filter(|a| a.group == GROUP) {
        if !designs.contains(&a.design) {
            designs.push(a.design.clone());
        }
    }

    // Per design: (burstiness, fg latency, bg latency, global latency,
    // deflections/packet), sorted along the burstiness axis.
    let mut text = String::new();
    let mut fg_chart: Vec<Series> = Vec::new();
    let mut bg_chart: Vec<Series> = Vec::new();
    let mut defl_chart: Vec<Series> = Vec::new();
    for design in &designs {
        let mut rows: Vec<(f64, &Aggregate)> = aggs
            .iter()
            .filter(|a| a.group == GROUP && &a.design == design)
            .filter_map(|a| burstiness_of(&a.workload).map(|b| (b, a)))
            .collect();
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));

        let fg: Vec<(f64, f64)> = rows
            .iter()
            .filter_map(|(b, a)| app_mean(a, "fg", |s| s.avg_packet_latency).map(|y| (*b, y)))
            .collect();
        let bg: Vec<(f64, f64)> = rows
            .iter()
            .filter_map(|(b, a)| app_mean(a, "bg", |s| s.avg_packet_latency).map(|y| (*b, y)))
            .collect();
        let global: Vec<(f64, f64)> = rows
            .iter()
            .map(|(b, a)| (*b, a.mean(|r| r.avg_packet_latency)))
            .collect();
        let defl: Vec<(f64, f64)> = rows
            .iter()
            .map(|(b, a)| (*b, a.mean(|r| r.deflections_per_packet)))
            .collect();

        text.push_str(&render_series(
            &format!("SCN fg latency — {design}"),
            XLABEL,
            "avg packet latency (cycles)",
            &fg,
        ));
        text.push_str(&render_series(
            &format!("SCN bg latency — {design}"),
            XLABEL,
            "avg packet latency (cycles)",
            &bg,
        ));
        text.push_str(&render_series(
            &format!("SCN global latency — {design}"),
            XLABEL,
            "avg packet latency (cycles)",
            &global,
        ));
        text.push_str(&render_series(
            &format!("SCN deflection rate — {design}"),
            XLABEL,
            "deflections per packet",
            &defl,
        ));
        text.push('\n');

        fg_chart.push(Series {
            name: format!("{design} (fg)"),
            points: fg,
        });
        bg_chart.push(Series {
            name: format!("{design} (bg)"),
            points: bg,
        });
        defl_chart.push(Series {
            name: design.clone(),
            points: defl,
        });
    }

    // Fabric-variant summary: one line per (scenario, fabric) point.
    text.push_str("# fabric variants (load 0.30)\n");
    let mut fab: Vec<&Aggregate> = aggs.iter().filter(|a| a.group == FABRICS).collect();
    fab.sort_by(|a, b| (&a.workload, &a.design).cmp(&(&b.workload, &b.design)));
    for a in fab {
        let apps = a.runs.first().map(|r| r.apps.len()).unwrap_or(0);
        text.push_str(&format!(
            "# {:<16} {:<28} latency {:>7.1}  accepted {:>5.3}  defl/pkt {:>6.3}  apps {}\n",
            a.workload,
            a.design,
            a.mean(|r| r.avg_packet_latency),
            a.mean(|r| r.accepted_fraction),
            a.mean(|r| r.deflections_per_packet),
            apps,
        ));
    }
    text.push('\n');

    let mut latency_chart = fg_chart;
    latency_chart.extend(bg_chart);
    emit_svg(
        "scenario_latency",
        &line_chart(
            "Interference — per-app latency vs background burstiness",
            XLABEL,
            "avg packet latency (cycles)",
            &latency_chart,
        ),
    );
    emit_svg(
        "scenario_deflections",
        &line_chart(
            "Interference — deflection rate vs background burstiness",
            XLABEL,
            "deflections per packet",
            &defl_chart,
        ),
    );

    // Sanity: the sweep covered every declared burstiness point.
    let swept: std::collections::BTreeSet<u64> = aggs
        .iter()
        .filter(|a| a.group == GROUP)
        .filter_map(|a| burstiness_of(&a.workload))
        .map(f64::to_bits)
        .collect();
    if swept.len() < SCENARIO_BURSTINESS.len() {
        eprintln!(
            "[fig_scenario] WARNING: only {}/{} burstiness points present",
            swept.len(),
            SCENARIO_BURSTINESS.len()
        );
    }

    emit("fig_scenario", &text, &report.results());
    exit_on_failures(&report);
}
