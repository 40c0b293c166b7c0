//! Ablation sweeps over the design choices DESIGN.md calls out — the
//! knobs the paper fixes by construction or tuning:
//!
//! 1. **Fairness threshold** — the paper: "After testing with different
//!    traffic patterns, the threshold is set to four to obtain the best
//!    performance. Setting the threshold too small can lead to difficulty
//!    covering the round-trip delay of credits, while setting the number
//!    too large does not help to solve the fairness issue."
//! 2. **Secondary buffer depth** — 4 flits per input in the paper; how much
//!    does saturation move with 2 or 8?
//! 3. **BIST detection delay** — the paper assumes 5 cycles and argues the
//!    delay is what hurts WF adaptive routing under faults.
//! 4. **Mesh size** — the paper evaluates 8x8 only; saturation ordering
//!    should persist on 4x4 and 12x12.
//!
//! ```text
//! cargo run --release -p bench --bin ablations
//! ```

use bench::{emit, exit_on_failures, multi_seed, run_figure_campaign};
use dxbar_noc::noc_sim::report::{render_series, render_series_ci};
use dxbar_noc::{Design, RunResult};
use noc_campaign::Aggregate;

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let spec = bench::specs::ablations();
    let report = run_figure_campaign(&spec);
    let aggs = report.aggregates();

    // Each ablation group holds a single knob setting; look curves up by
    // the group label the spec builder assigned.
    let find = |label: String, design: Design| -> &Aggregate {
        aggs.iter()
            .find(|a| a.group == label && a.design == design.name())
            .expect("ablation point exists")
    };
    let ci_mode = multi_seed();
    let series = |knobs: &[f64],
                  label_of: &dyn Fn(f64) -> String,
                  design: Design,
                  metric: &dyn Fn(&RunResult) -> f64| {
        let mean: Vec<(f64, f64)> = knobs
            .iter()
            .map(|&k| (k, find(label_of(k), design).mean(metric)))
            .collect();
        let ci: Vec<(f64, f64, f64)> = knobs
            .iter()
            .map(|&k| {
                let s = find(label_of(k), design).summary(metric);
                (k, s.mean, s.ci95)
            })
            .collect();
        (mean, ci)
    };
    let push = |text: &mut String,
                title: &str,
                xlabel: &str,
                ylabel: &str,
                mean: &[(f64, f64)],
                ci: &[(f64, f64, f64)]| {
        if ci_mode {
            text.push_str(&render_series_ci(title, xlabel, ylabel, ci));
        } else {
            text.push_str(&render_series(title, xlabel, ylabel, mean));
        }
    };

    let mut text = String::new();

    // 1. Fairness threshold sweep at a post-saturation load: latency of the
    //    injection-starved centre nodes is what the mechanism protects.
    {
        let knobs: Vec<f64> = [1u32, 2, 4, 8, 16, 64].map(f64::from).to_vec();
        let label = |k: f64| format!("ablation1_thresh={k}");
        let (tp, tp_ci) = series(&knobs, &label, Design::DXbarDor, &|r| r.accepted_fraction);
        let (lat, lat_ci) = series(&knobs, &label, Design::DXbarDor, &|r| r.avg_packet_latency);
        push(
            &mut text,
            "ABLATION 1a — fairness threshold vs accepted load (UR @ 0.45)",
            "threshold",
            "accepted load",
            &tp,
            &tp_ci,
        );
        push(
            &mut text,
            "ABLATION 1b — fairness threshold vs avg packet latency",
            "threshold",
            "latency (cycles)",
            &lat,
            &lat_ci,
        );
        text.push('\n');
    }

    // 2. Buffer depth sweep.
    {
        let knobs: Vec<f64> = [1.0, 2.0, 4.0, 8.0, 16.0].to_vec();
        let label = |k: f64| format!("ablation2_depth={k}");
        let (tp, tp_ci) = series(&knobs, &label, Design::DXbarDor, &|r| r.accepted_fraction);
        let (en, en_ci) = series(&knobs, &label, Design::DXbarDor, &|r| {
            r.avg_packet_energy_nj
        });
        push(
            &mut text,
            "ABLATION 2a — secondary buffer depth vs saturation throughput (UR @ 0.6)",
            "depth (flits)",
            "accepted load",
            &tp,
            &tp_ci,
        );
        push(
            &mut text,
            "ABLATION 2b — secondary buffer depth vs energy per packet",
            "depth (flits)",
            "energy (nJ/packet)",
            &en,
            &en_ci,
        );
        text.push('\n');
    }

    // 3. Detection-delay sweep under 100 % faults, WF routing (the paper's
    //    explanation for WF's fault sensitivity).
    {
        let knobs: Vec<f64> = [0.0, 2.0, 5.0, 10.0, 20.0, 50.0].to_vec();
        let label = |k: f64| format!("ablation3_delay={k}");
        let (tp, tp_ci) = series(&knobs, &label, Design::DXbarWf, &|r| r.accepted_fraction);
        push(
            &mut text,
            "ABLATION 3 — BIST detection delay vs WF throughput (100% faults, UR @ 0.35)",
            "detection delay (cycles)",
            "accepted load",
            &tp,
            &tp_ci,
        );
        text.push('\n');
    }

    // 4. Mesh-size scaling: does the DXbar-vs-baselines ordering persist?
    {
        let sizes = [4u16, 8, 12];
        text.push_str("# ABLATION 4 — saturation throughput across mesh sizes (UR @ 0.6)\n");
        text.push_str(&format!(
            "# {:<8} {:>12} {:>12} {:>12}\n",
            "mesh", "Flit-Bless", "Buffered 8", "DXbar DOR"
        ));
        for s in sizes {
            let get =
                |d: Design| find(format!("ablation4_mesh={s}"), d).mean(|r| r.accepted_fraction);
            text.push_str(&format!(
                "{:<10} {:>12.3} {:>12.3} {:>12.3}\n",
                format!("{s}x{s}"),
                get(Design::FlitBless),
                get(Design::Buffered8),
                get(Design::DXbarDor)
            ));
        }
    }

    emit("ablations", &text, &report.results());
    exit_on_failures(&report);
}
