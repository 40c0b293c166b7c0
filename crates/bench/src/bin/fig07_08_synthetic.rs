//! Figures 7 & 8 — throughput and energy at an offered load of 0.5 for all
//! nine synthetic traffic patterns (UR, NUR, BR, BF, CP, MT, PS, NB, TOR).
//!
//! Paper shape to match: DXbar DOR leads on UR, NUR, CP and TOR; DXbar WF
//! is very competitive on the adaptive-friendly patterns (BR, BF, MT, PS);
//! DXbar uses the least power, Flit-Bless the most, SCARAB second, and the
//! generic buffered routers in between.
//!
//! ```text
//! cargo run --release -p bench --bin fig07_08_synthetic
//! ```

use bench::svg::bar_chart;
use bench::{all_designs, emit, emit_svg, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::render_bars;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::RunResult;
use noc_campaign::Aggregate;

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::fig07_08();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();
    let designs = all_designs();
    let names: Vec<&str> = designs.iter().map(|d| d.name()).collect();

    type Metric = dyn Fn(&RunResult) -> f64;
    type Stat = dyn Fn(&Aggregate, &Metric) -> f64;
    let find = |p: Pattern, dname: &str| -> Option<&Aggregate> {
        aggs.iter()
            .find(|a| a.design == dname && a.workload == p.abbrev())
    };
    let row = |metric: &Metric, stat: &Stat| -> Vec<(String, Vec<f64>)> {
        Pattern::ALL
            .into_iter()
            .map(|p| {
                let vals: Vec<f64> = designs
                    .iter()
                    .map(|d| {
                        find(p, d.name())
                            .map(|a| stat(a, metric))
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                (p.abbrev().to_string(), vals)
            })
            .collect()
    };
    let mean = |a: &Aggregate, m: &Metric| a.summary(m).mean;
    let ci = |a: &Aggregate, m: &Metric| a.summary(m).ci95;

    let mut text = String::new();
    text.push_str(&render_bars(
        "FIGURE 7 — Throughput at offered load = 0.5, all synthetic traces",
        &names,
        &row(&|r| r.accepted_fraction, &mean),
    ));
    text.push('\n');
    text.push_str(&render_bars(
        "FIGURE 8 — Energy (nJ/packet) at offered load = 0.5, all synthetic traces",
        &names,
        &row(&|r| r.avg_packet_energy_nj, &mean),
    ));
    if multi_seed() {
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 7 — Throughput (95% CI half-width)",
            &names,
            &row(&|r| r.accepted_fraction, &ci),
        ));
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 8 — Energy (95% CI half-width)",
            &names,
            &row(&|r| r.avg_packet_energy_nj, &ci),
        ));
    }

    let cats: Vec<String> = Pattern::ALL
        .iter()
        .map(|p| p.abbrev().to_string())
        .collect();
    let snames: Vec<String> = designs.iter().map(|d| d.name().to_string()).collect();
    let tp_rows = row(&|r| r.accepted_fraction, &mean);
    let en_rows = row(&|r| r.avg_packet_energy_nj, &mean);
    emit_svg(
        "fig07_throughput_synthetic",
        &bar_chart(
            "Fig. 7 — Throughput at load 0.5, all synthetic traces",
            "accepted load",
            &cats,
            &snames,
            &tp_rows.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>(),
        ),
    );
    emit_svg(
        "fig08_energy_synthetic",
        &bar_chart(
            "Fig. 8 — Energy at load 0.5, all synthetic traces",
            "energy (nJ/packet)",
            &cats,
            &snames,
            &en_rows.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>(),
        ),
    );

    emit("fig07_08_synthetic", &text, &report.results());
    exit_on_failures(&report);
}
