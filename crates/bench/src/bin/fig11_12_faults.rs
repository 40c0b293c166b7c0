//! Figures 11 & 12 — throughput, latency and power of DXbar under varying
//! percentages of router crossbar faults, for DOR and WF routing, uniform
//! random traffic.
//!
//! Paper shape to match: with DOR the throughput degradation stays below
//! ~10 % even at 100 % faults (every router degrades to a buffered router
//! through its surviving crossbar); WF adaptive routing suffers much more
//! (up to ~33 % at 100 % faults, because the 5-cycle detection delay hits
//! adaptive paths harder); latency and power rise with the fault fraction
//! as more flits are forced through the buffers.
//!
//! ```text
//! cargo run --release -p bench --bin fig11_12_faults
//! ```

use bench::specs::FAULT_PERCENTS;
use bench::svg::{line_chart, Series};
use bench::{emit, emit_svg, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::{render_series, render_series_ci};
use dxbar_noc::{Design, RunResult};
use noc_campaign::Aggregate;

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::fig11_12();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();
    let designs = [Design::DXbarDor, Design::DXbarWf];

    let curve = |design: Design, percent: u32| -> Vec<&Aggregate> {
        aggs.iter()
            .filter(|a| a.group == format!("fig11_12_f{percent}") && a.design == design.name())
            .collect()
    };
    let ci_mode = multi_seed();
    let render = |text: &mut String,
                  title: &str,
                  ylabel: &str,
                  rows: &[&Aggregate],
                  metric: &dyn Fn(&RunResult) -> f64| {
        if ci_mode {
            let pts: Vec<(f64, f64, f64)> = rows
                .iter()
                .map(|a| {
                    let s = a.summary(metric);
                    (a.x, s.mean, s.ci95)
                })
                .collect();
            text.push_str(&render_series_ci(title, "offered load", ylabel, &pts));
        } else {
            let pts: Vec<(f64, f64)> = rows.iter().map(|a| (a.x, a.mean(metric))).collect();
            text.push_str(&render_series(title, "offered load", ylabel, &pts));
        }
    };

    let mut text = String::new();
    for design in designs {
        for percent in FAULT_PERCENTS {
            let rows = curve(design, percent);
            render(
                &mut text,
                &format!("FIG 11 throughput — {} @ {percent}% faults", design.name()),
                "accepted load",
                &rows,
                &|r| r.accepted_fraction,
            );
            render(
                &mut text,
                &format!("FIG 11/12 latency — {} @ {percent}% faults", design.name()),
                "avg packet latency (cycles)",
                &rows,
                &|r| r.avg_packet_latency,
            );
            render(
                &mut text,
                &format!("FIG 12 power — {} @ {percent}% faults", design.name()),
                "avg energy (nJ/packet)",
                &rows,
                &|r| r.avg_packet_energy_nj,
            );
            text.push('\n');
        }
    }

    // Degradation summary (the numbers the paper quotes in the text).
    for design in designs {
        let sat = |percent: u32| -> f64 {
            curve(design, percent)
                .iter()
                .map(|a| a.mean(|r| r.accepted_fraction))
                .fold(0.0f64, f64::max)
        };
        let healthy = sat(0);
        let broken = sat(100);
        text.push_str(&format!(
            "# {}: saturation {healthy:.3} -> {broken:.3} at 100% faults ({:.0}% degradation)\n",
            design.name(),
            (1.0 - broken / healthy) * 100.0
        ));
    }

    for (metric, id, ylabel) in [
        (0usize, "fig11_throughput_faults", "accepted load"),
        (1, "fig11_latency_faults", "avg packet latency (cycles)"),
        (2, "fig12_power_faults", "avg energy (nJ/packet)"),
    ] {
        let mut chart: Vec<Series> = Vec::new();
        for design in designs {
            for percent in FAULT_PERCENTS {
                chart.push(Series {
                    name: format!("{} {percent}%", design.name()),
                    points: curve(design, percent)
                        .iter()
                        .map(|a| {
                            let y = a.mean(|r| match metric {
                                0 => r.accepted_fraction,
                                1 => r.avg_packet_latency,
                                _ => r.avg_packet_energy_nj,
                            });
                            (a.x, y)
                        })
                        .collect(),
                });
            }
        }
        emit_svg(
            id,
            &line_chart(
                &format!("Figs. 11/12 — {ylabel} vs load under crossbar faults"),
                "offered load",
                ylabel,
                &chart,
            ),
        );
    }

    emit("fig11_12_faults", &text, &report.results());
    exit_on_failures(&report);
}
