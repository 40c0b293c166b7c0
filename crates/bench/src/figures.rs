//! Renderers of every table and figure of the evaluation, one function per
//! row of [`crate::specs::REGISTRY`], and the driver ([`regenerate`]) that
//! runs a row's campaign, renders it and writes the outputs.
//!
//! A renderer turns a campaign's aggregates into the figure's text (what
//! goes to stdout and `<alias>.txt`) and its charts as `(file stem, svg)`.
//! The *Paper shape* notes say what each figure has to reproduce.

use crate::specs::{Entry, FAULT_PERCENTS, SCENARIO_BURSTINESS};
use crate::svg::{bar_chart, line_chart, Series};
use crate::{emit, emit_svg, multi_seed, run_figure_campaign};
use dxbar_noc::noc_power::area::{AreaModel, DesignKind};
use dxbar_noc::noc_power::energy::EnergyConstants;
use dxbar_noc::noc_power::table::{render_table3, table3_rows};
use dxbar_noc::noc_sim::report::{render_bars, render_series, render_series_ci};
use dxbar_noc::noc_sim::AppStats;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::{MemoryParams, ProcessorParams};
use dxbar_noc::{Design, RunResult};
use noc_campaign::{panic_message, Aggregate, CampaignReport, WorkloadAxis};

/// A figure's text and its charts as `(file stem, svg)`.
pub type Rendered = (String, Vec<(String, String)>);

/// A renderer: the aggregates of the row's campaign (none for `tables`) in,
/// the figure out.
pub type Render = fn(&[Aggregate]) -> Rendered;

/// (name, y-axis label, extractor) of one plotted quantity.
type Metric = (&'static str, &'static str, fn(&RunResult) -> f64);

/// One line of a line figure.
struct Curve<'a> {
    /// Legend entry.
    name: String,
    /// What the titles of its text blocks call it.
    label: String,
    /// Its `(x, aggregate)` points in plot order.
    rows: Vec<(f64, &'a Aggregate)>,
}

/// Append one text block — `metric`'s mean at every x of `rows`, with a
/// ±95 % CI column when several seeds were run — and return the mean
/// points, which are what the chart and the summaries use.
fn curve(
    text: &mut String,
    title: &str,
    xlabel: &str,
    ylabel: &str,
    rows: &[(f64, &Aggregate)],
    metric: fn(&RunResult) -> f64,
) -> Vec<(f64, f64)> {
    let points: Vec<(f64, f64)> = rows.iter().map(|(x, a)| (*x, a.mean(metric))).collect();
    if multi_seed() {
        let triples: Vec<(f64, f64, f64)> = rows
            .iter()
            .map(|(x, a)| {
                let s = a.summary(metric);
                (*x, s.mean, s.ci95)
            })
            .collect();
        text.push_str(&render_series_ci(title, xlabel, ylabel, &triples));
    } else {
        text.push_str(&render_series(title, xlabel, ylabel, &points));
    }
    points
}

/// Every metric over every curve. The text is curve-major: a block per
/// metric titled `{prefix}{metric} — {label}`, then a blank line. Returns,
/// per metric, one chart series per curve.
fn plot(
    text: &mut String,
    prefix: &str,
    xlabel: &str,
    metrics: &[Metric],
    curves: &[Curve],
) -> Vec<Vec<Series>> {
    let mut charts: Vec<Vec<Series>> = metrics.iter().map(|_| Vec::new()).collect();
    for c in curves {
        for (chart, (name, ylabel, metric)) in charts.iter_mut().zip(metrics) {
            let title = format!("{prefix}{name} — {}", c.label);
            let points = curve(text, &title, xlabel, ylabel, &c.rows, *metric);
            chart.push(Series {
                name: c.name.clone(),
                points,
            });
        }
        text.push('\n');
    }
    charts
}

/// The aggregates `keep` selects, as `(offered load, aggregate)` points in
/// campaign order.
fn over_load(aggs: &[Aggregate], keep: impl Fn(&Aggregate) -> bool) -> Vec<(f64, &Aggregate)> {
    let kept = aggs.iter().filter(|a| keep(a));
    kept.map(|a| (a.x, a)).collect()
}

/// The curves of one campaign group: a curve per design, in order of first
/// appearance, its points sorted along `x`.
fn by_design<'a>(
    aggs: &'a [Aggregate],
    group: &str,
    x: impl Fn(&Aggregate) -> f64,
) -> Vec<Curve<'a>> {
    let mut curves: Vec<Curve> = Vec::new();
    for a in aggs.iter().filter(|a| a.group == group) {
        let at = match curves.iter().position(|c| c.name == a.design) {
            Some(at) => at,
            None => {
                curves.push(Curve {
                    name: a.design.clone(),
                    label: a.design.clone(),
                    rows: Vec::new(),
                });
                curves.len() - 1
            }
        };
        curves[at].rows.push((x(a), a));
    }
    for c in &mut curves {
        c.rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    curves
}

/// The file stem of a metric's chart: `{stem}_{metric name}`, spaces as `_`.
fn chart_id(stem: &str, metric: &str) -> String {
    format!("{stem}_{}", metric.replace(' ', "_"))
}

/// The grid of a bar figure: a row per category, a value per design.
fn bars(
    categories: &[&str],
    designs: &[Design],
    value: impl Fn(&str, Design) -> f64,
) -> Vec<(String, Vec<f64>)> {
    let row = |cat: &str| designs.iter().map(|&d| value(cat, d)).collect();
    categories.iter().map(|c| (c.to_string(), row(c))).collect()
}

/// [`bars`] rows as a grouped bar chart.
fn bar_svg(title: &str, ylabel: &str, designs: &[Design], rows: &[(String, Vec<f64>)]) -> String {
    let cats: Vec<String> = rows.iter().map(|(c, _)| c.clone()).collect();
    let names: Vec<String> = designs.iter().map(|d| d.name().to_string()).collect();
    let values: Vec<Vec<f64>> = rows.iter().map(|(_, v)| v.clone()).collect();
    bar_chart(title, ylabel, &cats, &names, &values)
}

/// The aggregate of one (workload, design) cell of a bar figure.
fn cell<'a>(aggs: &'a [Aggregate], workload: &str, design: Design) -> Option<&'a Aggregate> {
    aggs.iter()
        .find(|a| a.design == design.name() && a.workload == workload)
}

/// Tables I, II and III.
///
/// * Table I — processor parameters of the SPLASH-2 simulations;
/// * Table II — cache and memory parameters;
/// * Table III — per-design area and energy estimates (our calibrated
///   analytical model standing in for the paper's Synopsys synthesis; the
///   paper's stated relationships are asserted while rendering).
pub(crate) fn tables(_: &[Aggregate]) -> Rendered {
    let p = ProcessorParams::default();
    let mut t1 = String::new();
    t1.push_str("TABLE I — processor parameters (SPLASH-2 suite simulations)\n");
    t1.push_str(&format!("{:<28} {} GHz\n", "Frequency", p.frequency_ghz));
    t1.push_str(&format!(
        "{:<28} {}, {}\n",
        "Issue", p.issue_width, p.issue_order
    ));
    t1.push_str(&format!("{:<28} {}\n", "Retire", p.retire_order));
    t1.push_str(&format!("{:<28} {}\n", "Ld/St units", p.ld_st_units));
    t1.push_str(&format!("{:<28} {}\n", "Mul/Div units", p.mul_div_units));
    t1.push_str(&format!(
        "{:<28} {}\n",
        "Write-buffer entries", p.write_buffer_entries
    ));
    t1.push_str(&format!(
        "{:<28} {}\n",
        "Branch predictor", p.branch_predictor
    ));
    t1.push_str(&format!(
        "{:<28} {}/{}\n",
        "BTB/RAS entries", p.btb_entries, p.ras_entries
    ));
    t1.push_str(&format!(
        "{:<28} {} KB, {}-way\n",
        "IL1/DL1 size, associativity", p.l1_size_kb, p.l1_assoc
    ));
    t1.push_str(&format!(
        "{:<28} {} cycles\n",
        "IL1/DL1 access latency", p.l1_latency_cycles
    ));
    t1.push_str(&format!(
        "{:<28} {} B\n",
        "IL1/DL1 block size", p.l1_block_bytes
    ));

    let m = MemoryParams::default();
    let mut t2 = String::new();
    t2.push_str("\nTABLE II — cache and memory parameters\n");
    t2.push_str(&format!("{:<28} {}\n", "L2 caches (banks)", m.l2_banks));
    t2.push_str(&format!("{:<28} {} MB\n", "Cache size", m.l2_size_mb));
    t2.push_str(&format!(
        "{:<28} {}-way\n",
        "Cache associativity", m.l2_assoc
    ));
    t2.push_str(&format!(
        "{:<28} {} cycles\n",
        "Cache access latency", m.l2_latency_cycles
    ));
    t2.push_str(&format!("{:<28} {}\n", "Write-back policy", m.l2_writeback));
    t2.push_str(&format!("{:<28} {} B\n", "Cache block size", m.block_bytes));
    t2.push_str(&format!("{:<28} {}\n", "MSHR entries", m.mshr_entries));
    t2.push_str(&format!("{:<28} {}\n", "Coherence protocol", m.coherence));
    t2.push_str(&format!(
        "{:<28} {}\n",
        "Memory controllers", m.memory_controllers
    ));
    t2.push_str(&format!("{:<28} {} GB\n", "Memory size", m.memory_size_gb));
    t2.push_str(&format!(
        "{:<28} {} cycles\n",
        "Memory latency", m.memory_latency_cycles
    ));
    t2.push_str(&format!(
        "{:<28} {} cycles\n",
        "Directory latency", m.directory_latency_cycles
    ));

    let area = AreaModel::default();
    let energy = EnergyConstants::default();
    let rows = table3_rows(&area, &energy);
    let mut t3 = String::from("\nTABLE III — area and energy estimation (65 nm, 1.0 V, 1 GHz)\n");
    t3.push_str(&render_table3(&rows));

    // Assert the paper's stated relationships hold under the calibration.
    let a = |d| area.router_area_mm2(d);
    assert!(a(DesignKind::DXbar) > a(DesignKind::Buffered4));
    assert!(a(DesignKind::DXbar) < a(DesignKind::Buffered8));
    assert!(a(DesignKind::UnifiedXbar) < a(DesignKind::DXbar));
    let dxbar_rel = area.relative_area(DesignKind::DXbar, DesignKind::FlitBless);
    let unified_rel = area.relative_area(DesignKind::UnifiedXbar, DesignKind::FlitBless);
    t3.push_str(&format!(
        "\nDXbar area overhead over Flit-Bless:   {:.0}% (paper: 33%)\n",
        (dxbar_rel - 1.0) * 100.0
    ));
    t3.push_str(&format!(
        "Unified area overhead over Flit-Bless: {:.0}% (paper: 25%)\n",
        (unified_rel - 1.0) * 100.0
    ));
    t3.push_str("Critical paths: LT 0.47 ns; unified worst gate path 0.27 ns (< 1 ns clock)\n");

    (format!("{t1}{t2}{t3}"), vec![])
}

/// One curve per design of the UR sweep Figs. 5 and 6 share, each block
/// followed by the line `summary` makes of its points.
fn ur_sweep(
    aggs: &[Aggregate],
    heading: &str,
    ylabel: &str,
    metric: fn(&RunResult) -> f64,
    summary: fn(&[(f64, f64)]) -> String,
) -> (String, Vec<Series>) {
    let mut text = format!("{heading}\n");
    let mut chart = Vec::new();
    for design in Design::ALL {
        let rows = over_load(aggs, |a| a.design == design.name());
        let points = curve(
            &mut text,
            design.name(),
            "offered load",
            ylabel,
            &rows,
            metric,
        );
        text.push_str(&summary(&points));
        chart.push(Series {
            name: design.name().to_string(),
            points,
        });
    }
    (text, chart)
}

/// Figure 5 — throughput (accepted vs offered load) of uniform random
/// traffic for all eleven designs on the 8x8 mesh.
///
/// Paper shape to match: DXbar DOR saturates above 0.4 of capacity
/// (~20 % over Buffered 8, ~40 % over Buffered 4 / Flit-Bless / SCARAB);
/// DXbar WF slightly below DOR but above everything else; the bufferless
/// designs saturate below 0.3.
pub(crate) fn fig05(aggs: &[Aggregate]) -> Rendered {
    let (text, chart) = ur_sweep(
        aggs,
        "FIGURE 5 — Throughput of Uniform Random traffic",
        "accepted load (fraction of capacity)",
        |r| r.accepted_fraction,
        |points| {
            let sat = points.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
            format!("# saturation throughput: {sat:.3}\n\n")
        },
    );
    let svg = line_chart(
        "Fig. 5 — Throughput, uniform random (8x8 mesh)",
        "offered load (fraction of capacity)",
        "accepted load",
        &chart,
    );
    (text, vec![("fig05_throughput_ur".into(), svg)])
}

/// Figure 6 — average energy per packet vs offered load, uniform random
/// traffic, all eleven designs. The campaign grid is Figure 5's, so with a
/// shared `DXBAR_CACHE` the sweep is only ever simulated once.
///
/// Paper shape to match: the bufferless designs are cheapest at zero load
/// but blow up near/after saturation (Flit-Bless ~3X, SCARAB ~2X); the
/// buffered baselines are flat and high (they buffer every flit); DXbar is
/// cheapest and nearly flat (only a small fraction of flits ever buffer).
pub(crate) fn fig06(aggs: &[Aggregate]) -> Rendered {
    let (text, chart) = ur_sweep(
        aggs,
        "FIGURE 6 — Energy of Uniform Random traffic",
        "average energy (nJ/packet)",
        |r| r.avg_packet_energy_nj,
        |points| {
            let low = points.first().map(|&(_, y)| y).unwrap_or(0.0);
            let high = points.last().map(|&(_, y)| y).unwrap_or(0.0);
            format!(
                "# zero-load {low:.3} nJ -> high-load {high:.3} nJ ({:.2}x)\n\n",
                if low > 0.0 { high / low } else { 0.0 }
            )
        },
    );
    let svg = line_chart(
        "Fig. 6 — Energy per packet, uniform random (8x8 mesh)",
        "offered load (fraction of capacity)",
        "average energy (nJ/packet)",
        &chart,
    );
    (text, vec![("fig06_energy_ur".into(), svg)])
}

/// Figures 7 & 8 — throughput and energy at an offered load of 0.5 for all
/// nine synthetic traffic patterns (UR, NUR, BR, BF, CP, MT, PS, NB, TOR).
///
/// Paper shape to match: DXbar DOR leads on UR, NUR, CP and TOR; DXbar WF
/// is very competitive on the adaptive-friendly patterns (BR, BF, MT, PS);
/// DXbar uses the least power, Flit-Bless the most, SCARAB second, and the
/// generic buffered routers in between.
pub(crate) fn fig07_08(aggs: &[Aggregate]) -> Rendered {
    let designs = Design::ALL;
    let names = designs.map(|d| d.name());
    let patterns = Pattern::ALL.map(|p| p.abbrev());
    type Stat = fn(&Aggregate, fn(&RunResult) -> f64) -> f64;
    let grid = |metric: fn(&RunResult) -> f64, stat: Stat| {
        bars(&patterns, &designs, |pattern, d| {
            cell(aggs, pattern, d).map_or(f64::NAN, |a| stat(a, metric))
        })
    };
    let mean: Stat = |a, m| a.summary(m).mean;
    let ci: Stat = |a, m| a.summary(m).ci95;
    let throughput = grid(|r| r.accepted_fraction, mean);
    let energy = grid(|r| r.avg_packet_energy_nj, mean);

    let mut text = String::new();
    text.push_str(&render_bars(
        "FIGURE 7 — Throughput at offered load = 0.5, all synthetic traces",
        &names,
        &throughput,
    ));
    text.push('\n');
    text.push_str(&render_bars(
        "FIGURE 8 — Energy (nJ/packet) at offered load = 0.5, all synthetic traces",
        &names,
        &energy,
    ));
    if multi_seed() {
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 7 — Throughput (95% CI half-width)",
            &names,
            &grid(|r| r.accepted_fraction, ci),
        ));
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 8 — Energy (95% CI half-width)",
            &names,
            &grid(|r| r.avg_packet_energy_nj, ci),
        ));
    }

    let svgs = vec![
        (
            "fig07_throughput_synthetic".into(),
            bar_svg(
                "Fig. 7 — Throughput at load 0.5, all synthetic traces",
                "accepted load",
                &designs,
                &throughput,
            ),
        ),
        (
            "fig08_energy_synthetic".into(),
            bar_svg(
                "Fig. 8 — Energy at load 0.5, all synthetic traces",
                "energy (nJ/packet)",
                &designs,
                &energy,
            ),
        ),
    ];
    (text, svgs)
}

/// Figures 9 & 10 — normalized execution time and energy for the SPLASH-2
/// applications (closed-loop coherence workload model; see DESIGN.md for
/// the substitution of the paper's Simics/GEMS traces).
///
/// Paper shape to match: DXbar DOR beats DXbar WF; DXbar achieves the best
/// execution time for most applications (the bufferless designs keep up
/// and can edge it out on FFT-like traces); Flit-Bless and SCARAB pay much
/// more energy than DXbar; DXbar saves energy over the buffered baselines.
pub(crate) fn fig09_10(aggs: &[Aggregate]) -> Rendered {
    let WorkloadAxis::Splash { apps, .. } = crate::specs::fig09_10().groups.remove(0).workload
    else {
        unreachable!("fig09_10 is a SPLASH campaign");
    };
    let apps: Vec<&str> = apps.iter().map(|a| a.name()).collect();
    let designs = Design::PAPER_SET;
    let names = designs.map(|d| d.name());
    let find = |app: &str, d: Design| cell(aggs, app, d).expect("run exists");
    let finish = |r: &RunResult| r.finish_cycle.map(|c| c as f64).unwrap_or(f64::NAN);
    let energy_uj = |r: &RunResult| r.energy.total_pj() / 1e6;
    // Fig. 9 is normalized to the Buffered 4 baseline.
    let base = |app: &str| find(app, Design::Buffered4).mean(finish);

    let time = bars(&apps, &designs, |app, d| {
        find(app, d).mean(finish) / base(app)
    });
    // Fig. 10: whole-run network energy, microjoules.
    let energy = bars(&apps, &designs, |app, d| find(app, d).mean(energy_uj));

    let mut text = String::new();
    text.push_str(&render_bars(
        "FIGURE 9 — Normalized execution time of SPLASH-2 traces (vs Buffered 4)",
        &names,
        &time,
    ));
    text.push('\n');
    text.push_str(&render_bars(
        "FIGURE 10 — Energy consumed on SPLASH-2 traces (uJ)",
        &names,
        &energy,
    ));
    if multi_seed() {
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 9 — Normalized execution time (95% CI half-width)",
            &names,
            &bars(&apps, &designs, |app, d| {
                find(app, d).summary(finish).ci95 / base(app)
            }),
        ));
        text.push('\n');
        text.push_str(&render_bars(
            "FIGURE 10 — Energy (95% CI half-width, uJ)",
            &names,
            &bars(&apps, &designs, |app, d| {
                find(app, d).summary(energy_uj).ci95
            }),
        ));
    }

    // Headline ratios the paper quotes.
    let worst_ratio = |d: Design| {
        let total = |app: &str, d| find(app, d).mean(|r| r.energy.total_pj());
        let ratios = apps
            .iter()
            .map(|app| total(app, d) / total(app, Design::DXbarDor));
        ratios.fold(0.0f64, f64::max)
    };
    text.push_str(&format!(
        "\n# max energy ratio vs DXbar DOR: Flit-Bless {:.1}x (paper: >=16x), SCARAB {:.1}x (paper: >=2x)\n",
        worst_ratio(Design::FlitBless),
        worst_ratio(Design::Scarab)
    ));

    let svgs = vec![
        (
            "fig09_exec_time_splash".into(),
            bar_svg(
                "Fig. 9 — Normalized execution time, SPLASH-2 (vs Buffered 4)",
                "normalized execution time",
                &designs,
                &time,
            ),
        ),
        (
            "fig10_energy_splash".into(),
            bar_svg(
                "Fig. 10 — Energy, SPLASH-2 (uJ)",
                "energy (uJ)",
                &designs,
                &energy,
            ),
        ),
    ];
    (text, svgs)
}

/// Figures 11 & 12 — throughput, latency and power of DXbar under varying
/// percentages of router crossbar faults, for DOR and WF routing, uniform
/// random traffic.
///
/// Paper shape to match: with DOR the throughput degradation stays below
/// ~10 % even at 100 % faults (every router degrades to a buffered router
/// through its surviving crossbar); WF adaptive routing suffers much more
/// (up to ~33 % at 100 % faults, because the 5-cycle detection delay hits
/// adaptive paths harder); latency and power rise with the fault fraction
/// as more flits are forced through the buffers.
pub(crate) fn fig11_12(aggs: &[Aggregate]) -> Rendered {
    const METRICS: [Metric; 3] = [
        ("FIG 11 throughput", "accepted load", |r| {
            r.accepted_fraction
        }),
        ("FIG 11/12 latency", "avg packet latency (cycles)", |r| {
            r.avg_packet_latency
        }),
        ("FIG 12 power", "avg energy (nJ/packet)", |r| {
            r.avg_packet_energy_nj
        }),
    ];
    const CHARTS: [&str; 3] = [
        "fig11_throughput_faults",
        "fig11_latency_faults",
        "fig12_power_faults",
    ];
    let designs = [Design::DXbarDor, Design::DXbarWf];
    let rows = |design: Design, percent: u32| {
        let group = format!("fig11_12_f{percent}");
        over_load(aggs, |a| a.group == group && a.design == design.name())
    };

    let mut curves = Vec::new();
    for design in designs {
        for percent in FAULT_PERCENTS {
            curves.push(Curve {
                name: format!("{} {percent}%", design.name()),
                label: format!("{} @ {percent}% faults", design.name()),
                rows: rows(design, percent),
            });
        }
    }
    let mut text = String::new();
    let charts = plot(&mut text, "", "offered load", &METRICS, &curves);

    // Degradation summary (the numbers the paper quotes in the text).
    for design in designs {
        let sat = |percent: u32| {
            let accepted = rows(design, percent)
                .into_iter()
                .map(|(_, a)| a.mean(|r| r.accepted_fraction));
            accepted.fold(0.0f64, f64::max)
        };
        let (healthy, broken) = (sat(0), sat(100));
        text.push_str(&format!(
            "# {}: saturation {healthy:.3} -> {broken:.3} at 100% faults ({:.0}% degradation)\n",
            design.name(),
            (1.0 - broken / healthy) * 100.0
        ));
    }

    let svgs = CHARTS.iter().zip(METRICS).zip(charts);
    let svgs = svgs.map(|((id, (_, ylabel, _)), chart)| {
        let title = format!("Figs. 11/12 — {ylabel} vs load under crossbar faults");
        let svg = line_chart(&title, "offered load", ylabel, &chart);
        (id.to_string(), svg)
    });
    (text, svgs.collect())
}

/// Ablation sweeps over the design choices DESIGN.md calls out — the
/// knobs the paper fixes by construction or tuning:
///
/// 1. **Fairness threshold** — the paper: "After testing with different
///    traffic patterns, the threshold is set to four to obtain the best
///    performance. Setting the threshold too small can lead to difficulty
///    covering the round-trip delay of credits, while setting the number
///    too large does not help to solve the fairness issue."
/// 2. **Secondary buffer depth** — 4 flits per input in the paper; how much
///    does saturation move with 2 or 8?
/// 3. **BIST detection delay** — the paper assumes 5 cycles and argues the
///    delay is what hurts WF adaptive routing under faults.
/// 4. **Mesh size** — the paper evaluates 8x8 only; saturation ordering
///    should persist on 4x4 and 12x12.
pub(crate) fn ablations(aggs: &[Aggregate]) -> Rendered {
    // Each ablation group holds a single knob setting; look curves up by
    // the group label the spec builder assigned.
    let find = |label: String, design: Design| -> &Aggregate {
        aggs.iter()
            .find(|a| a.group == label && a.design == design.name())
            .expect("ablation point exists")
    };
    let mut text = String::new();
    // One knob sweep: a block per (title, y-axis label, extractor).
    let mut sweep =
        |knob: &str, settings: &[f64], design: Design, xlabel: &str, blocks: &[Metric]| {
            let rows: Vec<(f64, &Aggregate)> = settings
                .iter()
                .map(|&k| (k, find(format!("{knob}={k}"), design)))
                .collect();
            for (title, ylabel, metric) in blocks {
                curve(&mut text, title, xlabel, ylabel, &rows, *metric);
            }
            text.push('\n');
        };

    // 1. Fairness threshold sweep at a post-saturation load: latency of the
    //    injection-starved centre nodes is what the mechanism protects.
    sweep(
        "ablation1_thresh",
        &[1.0, 2.0, 4.0, 8.0, 16.0, 64.0],
        Design::DXbarDor,
        "threshold",
        &[
            (
                "ABLATION 1a — fairness threshold vs accepted load (UR @ 0.45)",
                "accepted load",
                |r| r.accepted_fraction,
            ),
            (
                "ABLATION 1b — fairness threshold vs avg packet latency",
                "latency (cycles)",
                |r| r.avg_packet_latency,
            ),
        ],
    );
    // 2. Buffer depth sweep.
    sweep(
        "ablation2_depth",
        &[1.0, 2.0, 4.0, 8.0, 16.0],
        Design::DXbarDor,
        "depth (flits)",
        &[
            (
                "ABLATION 2a — secondary buffer depth vs saturation throughput (UR @ 0.6)",
                "accepted load",
                |r| r.accepted_fraction,
            ),
            (
                "ABLATION 2b — secondary buffer depth vs energy per packet",
                "energy (nJ/packet)",
                |r| r.avg_packet_energy_nj,
            ),
        ],
    );
    // 3. Detection-delay sweep under 100 % faults, WF routing (the paper's
    //    explanation for WF's fault sensitivity).
    sweep(
        "ablation3_delay",
        &[0.0, 2.0, 5.0, 10.0, 20.0, 50.0],
        Design::DXbarWf,
        "detection delay (cycles)",
        &[(
            "ABLATION 3 — BIST detection delay vs WF throughput (100% faults, UR @ 0.35)",
            "accepted load",
            |r| r.accepted_fraction,
        )],
    );

    // 4. Mesh-size scaling: does the DXbar-vs-baselines ordering persist?
    text.push_str("# ABLATION 4 — saturation throughput across mesh sizes (UR @ 0.6)\n");
    text.push_str(&format!(
        "# {:<8} {:>12} {:>12} {:>12}\n",
        "mesh", "Flit-Bless", "Buffered 8", "DXbar DOR"
    ));
    for s in [4u16, 8, 12] {
        let get = |d: Design| find(format!("ablation4_mesh={s}"), d).mean(|r| r.accepted_fraction);
        text.push_str(&format!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3}\n",
            format!("{s}x{s}"),
            get(Design::FlitBless),
            get(Design::Buffered8),
            get(Design::DXbarDor)
        ));
    }
    (text, vec![])
}

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

/// Graceful-degradation figures of the resilience layer: delivered
/// throughput, sanctioned packet loss and recovery latency as fault
/// intensity grows, for one representative design per family.
///
/// Two sweeps at a fixed moderate load (UR @ 0.3):
///
/// * transient soft errors (payload corruption / flit drops in transit) at
///   rates of 0 to 2e-3 events per link-cycle;
/// * permanent link faults, 0 to 4 dead physical channels (placed so the
///   mesh stays connected).
///
/// Every faulty point runs with per-flit CRC at ejection and the NI
/// retransmission protocol armed, so "packet loss" here means the NI
/// exhausted its retry budget — the sanctioned, counted loss the paper's
/// fault-tolerance argument degrades into, not silent corruption.
pub(crate) fn resilience(aggs: &[Aggregate]) -> Rendered {
    const METRICS: [Metric; 3] = [
        ("throughput", "accepted load", |r| r.accepted_fraction),
        ("packet loss", "lost flit fraction", loss_fraction),
        ("recovery latency", "avg recovery latency (cycles)", |r| {
            r.avg_recovery_latency
        }),
    ];
    /// (campaign group, x-axis label, intensity accessor).
    type Sweep = (&'static str, &'static str, fn(&Aggregate) -> f64);
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
    let mut svgs = Vec::new();
    for (group, xlabel, x_of) in sweeps {
        let mut curves = by_design(aggs, group, x_of);
        for c in &mut curves {
            c.label = format!("{} ({group})", c.name);
        }
        let charts = plot(&mut text, "RESILIENCE ", xlabel, &METRICS, &curves);

        // Degradation summary: throughput retained and loss at the worst
        // intensity of the sweep.
        for c in &curves {
            let healthy = c.rows.iter().find(|(x, _)| *x == 0.0);
            let worst = c.rows.last().filter(|(x, _)| *x > 0.0);
            if let (Some((_, healthy)), Some((x, worst))) = (healthy, worst) {
                text.push_str(&format!(
                    "# {}: throughput {:.3} -> {:.3} at intensity {x}, loss {:.2e}\n",
                    c.label,
                    healthy.mean(|r| r.accepted_fraction),
                    worst.mean(|r| r.accepted_fraction),
                    worst.mean(loss_fraction),
                ));
            }
        }
        text.push('\n');

        for ((name, ylabel, _), chart) in METRICS.iter().zip(charts) {
            let title = format!("Resilience — {ylabel} vs {xlabel}");
            let svg = line_chart(&title, xlabel, ylabel, &chart);
            svgs.push((chart_id(group, name), svg));
        }
    }
    (text, svgs)
}

/// Router-zoo cross-architecture figure: average packet latency, accepted
/// throughput and deflection rate vs. offered load (UR, 8x8) for every
/// router family in the repo — the paper's bufferless, buffered and
/// crossbar designs next to AFC, the shared-buffer DAMQ and the
/// minimally-buffered MinBD.
pub(crate) fn zoo(aggs: &[Aggregate]) -> Rendered {
    const METRICS: [Metric; 3] = [
        ("latency", "avg packet latency (cycles)", |r| {
            r.avg_packet_latency
        }),
        ("throughput", "accepted load", |r| r.accepted_fraction),
        ("deflection rate", "deflections per packet", |r| {
            r.deflections_per_packet
        }),
    ];
    const XLABEL: &str = "offered load (fraction of capacity)";
    let curves = by_design(aggs, "zoo_ur", |a| a.x);
    let mut text = String::new();
    let charts = plot(&mut text, "ZOO ", XLABEL, &METRICS, &curves);

    // Saturation summary: the lowest load at which a design's average
    // latency exceeds 3x its own zero-load latency (or "-" if it never
    // does inside the swept range).
    for c in &curves {
        let latency = |a: &Aggregate| a.mean(|r| r.avg_packet_latency);
        if let Some(base) = c.rows.first().map(|(_, a)| latency(a)) {
            let sat = c.rows.iter().find(|(_, a)| latency(a) > 3.0 * base);
            let sat = sat.map_or("-".into(), |(x, _)| format!("{x:.2}"));
            text.push_str(&format!(
                "# {}: zero-load latency {base:.1} cycles, 3x-latency load {sat}\n",
                c.name
            ));
        }
    }
    text.push('\n');

    let svgs = METRICS.iter().zip(charts);
    let svgs = svgs.map(|((name, ylabel, _), chart)| {
        let title = format!("Router zoo — {ylabel} vs offered load");
        let svg = line_chart(&title, XLABEL, ylabel, &chart);
        (chart_id("zoo", name), svg)
    });
    (text, svgs.collect())
}

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

/// Scenario-study figure: multi-application interference under bursty
/// background traffic, plus the fabric-variant scenarios (whole-mesh
/// MMPP/Pareto, DAMQ-island mixed fabric, torus, cmesh).
///
/// The headline panel sweeps the background application's MMPP burstiness
/// in the two-app `interfere2` split and plots, per design:
///
/// * the foreground and background apps' average packet latency
///   *separately* (the per-app [`AppStats`] slice), next to the global
///   aggregate — the gap between the fg curve and the global curve is the
///   interference the background bursts inflict;
/// * the global deflection rate, which rises with burstiness even at a
///   fixed mean offered load.
///
/// Means only: `DXBAR_SEEDS` adds replicates but no CI column here.
pub(crate) fn scenario(aggs: &[Aggregate]) -> Rendered {
    const GROUP: &str = "scenario_interference";
    const XLABEL: &str = "background burstiness (MMPP burst/base ratio)";
    const LATENCY: &str = "avg packet latency (cycles)";
    // The burstiness encoded in a parameterized `interfere2:<b>` name.
    let burstiness = |a: &Aggregate| -> f64 {
        let b = a.workload.strip_prefix("interfere2:");
        b.and_then(|b| b.parse().ok())
            .expect("the interference group sweeps interfere2:<b>")
    };
    let curves = by_design(aggs, GROUP, burstiness);

    let mut text = String::new();
    let mut latency_chart: Vec<Series> = Vec::new();
    let mut bg_chart: Vec<Series> = Vec::new();
    let mut defl_chart: Vec<Series> = Vec::new();
    for c in &curves {
        let app = |name: &str| -> Vec<(f64, f64)> {
            let points = c
                .rows
                .iter()
                .filter_map(|(b, a)| app_mean(a, name, |s| s.avg_packet_latency).map(|y| (*b, y)));
            points.collect()
        };
        let global = |metric: fn(&RunResult) -> f64| -> Vec<(f64, f64)> {
            c.rows.iter().map(|(b, a)| (*b, a.mean(metric))).collect()
        };
        let (fg, bg) = (app("fg"), app("bg"));
        let defl = global(|r| r.deflections_per_packet);
        for (what, ylabel, points) in [
            ("fg latency", LATENCY, &fg),
            ("bg latency", LATENCY, &bg),
            ("global latency", LATENCY, &global(|r| r.avg_packet_latency)),
            ("deflection rate", "deflections per packet", &defl),
        ] {
            let title = format!("SCN {what} — {}", c.name);
            text.push_str(&render_series(&title, XLABEL, ylabel, points));
        }
        text.push('\n');

        latency_chart.push(Series {
            name: format!("{} (fg)", c.name),
            points: fg,
        });
        bg_chart.push(Series {
            name: format!("{} (bg)", c.name),
            points: bg,
        });
        defl_chart.push(Series {
            name: c.name.clone(),
            points: defl,
        });
    }
    latency_chart.extend(bg_chart);

    // Fabric-variant summary: one line per (scenario, fabric) point.
    text.push_str("# fabric variants (load 0.30)\n");
    let mut fab: Vec<&Aggregate> = aggs
        .iter()
        .filter(|a| a.group == "scenario_fabrics")
        .collect();
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

    // Sanity: the sweep covered every declared burstiness point.
    let swept: std::collections::BTreeSet<u64> = curves
        .iter()
        .flat_map(|c| c.rows.iter().map(|(b, _)| b.to_bits()))
        .collect();
    if swept.len() < SCENARIO_BURSTINESS.len() {
        eprintln!(
            "[fig_scenario] WARNING: only {}/{} burstiness points present",
            swept.len(),
            SCENARIO_BURSTINESS.len()
        );
    }

    let svgs = vec![
        (
            "scenario_latency".into(),
            line_chart(
                "Interference — per-app latency vs background burstiness",
                XLABEL,
                LATENCY,
                &latency_chart,
            ),
        ),
        (
            "scenario_deflections".into(),
            line_chart(
                "Interference — deflection rate vs background burstiness",
                XLABEL,
                "deflections per packet",
                &defl_chart,
            ),
        ),
    ];
    (text, svgs)
}

/// Regenerate one row of the registry: run its campaign (the points come
/// out of `DXBAR_CACHE` when they are there), render it, print the text and
/// write the `DXBAR_OUT` files. Failed points do not stop the rendering —
/// the figure plots what completed — but they, and any invariant violation
/// under `DXBAR_VERIFY=1`, are the `Err`, so CI gates on complete, verified
/// regeneration.
pub fn regenerate(entry: &Entry) -> Result<(), String> {
    let render = entry
        .render
        .ok_or_else(|| format!("preset {} has no figure", entry.name))?;
    let report = entry.spec.map(|build| run_figure_campaign(&build()));
    let (aggs, results) = match &report {
        Some(r) => (r.aggregates(), r.results()),
        None => (vec![], vec![]),
    };
    let (text, svgs) = render(&aggs);
    for (id, svg) in &svgs {
        emit_svg(id, svg);
    }
    emit(entry.alias, &text, &results);
    report.as_ref().map_or(Ok(()), complete)
}

/// `Err` when a campaign lost points or observed invariant violations.
fn complete(report: &CampaignReport) -> Result<(), String> {
    let (name, failed) = (&report.name, report.failed_count());
    if failed > 0 {
        let total = report.outcomes.len();
        return Err(format!(
            "[{name}] {failed}/{total} points failed; figure is incomplete"
        ));
    }
    match report.total_violations() {
        0 => Ok(()),
        v => Err(format!(
            "[{name}] {v} invariant violation(s) under verification"
        )),
    }
}

/// Run `work` with a panic turned into an `Err`: what a child's exit status
/// told `repro_all` when every figure was a process, so that one figure's
/// failed `expect` still leaves the others to be rendered.
pub fn isolated<T>(
    work: impl FnOnce() -> Result<T, String> + std::panic::UnwindSafe,
) -> Result<T, String> {
    std::panic::catch_unwind(work)
        .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(panic.as_ref()))))
}
