//! `noc-benchmark compare A.json B.json`: hold the second result file to
//! the first by the bounds of `BENCHMARK.json`.
//!
//! One row per (workload, end-to-end metric): both medians with their
//! quartiles, how much worse B's median is as a share of A's, and a verdict.
//! `regressed` means worse by more than the bound; when the runs of either
//! file spread wider than the bound the difference cannot be resolved and
//! the row says so, unless the two sets of runs do not even overlap. A row
//! the first file has and the second lacks, and a workload that yielded fewer
//! results than the suite made runs (a run crashed or printed no result
//! line), count as regressed too: a change must not pass by losing a workload.

use crate::decl::{self, Better};
use crate::stats;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B's median is worse (negative: better).
pub fn worse_share(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// The rule of the module comment, on the raw runs of one metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worse_share(a, b, better);
    let spread = stats::spread_share(a).max(stats::spread_share(b));
    let lowest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // "Every run of one side beats every run of the other."
    let dominates = |winner: &[f64], loser: &[f64]| match better {
        Better::Lower => highest(winner) < lowest(loser),
        Better::Higher => lowest(winner) > highest(loser),
    };
    if spread <= bound {
        if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }
    } else if worse > bound && dominates(a, b) {
        Verdict::Regressed
    } else if dominates(b, a) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn column(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.field("workloads")
        .field(workload)
        .field("metrics")
        .field(metric)
        .as_array()
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Runs of `workload` that gave no result: runs the suite made less seeds
/// it recorded.
fn runs_lost(file: &Value, workload: &str) -> u64 {
    let recorded = file
        .field("workloads")
        .field(workload)
        .field("seeds")
        .as_array()
        .map_or(0, <[_]>::len) as u64;
    file.field("runs")
        .as_u64()
        .unwrap_or(0)
        .saturating_sub(recorded)
}

fn failed_total(file: &Value, workload: &str) -> u64 {
    file.field("workloads")
        .field(workload)
        .field("failed")
        .as_array()
        .map(|xs| xs.iter().filter_map(Value::as_u64).sum())
        .unwrap_or(0)
}

/// Print the comparison; `Ok(true)` when no row regressed.
pub fn compare(a_text: &str, b_text: &str, spec_text: &str) -> Result<bool, String> {
    let a = serde_json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = serde_json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let bounds = decl::bounds_from_json(spec_text)?;
    let mut clean = true;
    let mut unresolved = Vec::new();
    println!(
        "{:<20} {:<16} {:>13} {:>13} {:>13} | {:>13} {:>13} {:>13} | {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "worse",
        "bound"
    );
    for workload in decl::workload_names() {
        for (metric, better, bound) in &bounds {
            let (xa, xb) = (column(&a, workload, metric), column(&b, workload, metric));
            // Neither file has the column: traced files carry no
            // end-to-end metric. A metric only B has is new, with nothing
            // to hold it to.
            if xa.is_empty() {
                continue;
            }
            if xb.is_empty() {
                println!("{workload:<20} {metric:<16} in the first file only: regressed");
                clean = false;
                continue;
            }
            let v = verdict(&xa, &xb, *better, *bound);
            let (qa, qb) = (stats::quartiles(&xa), stats::quartiles(&xb));
            let spread = stats::spread_share(&xa).max(stats::spread_share(&xb));
            println!(
                "{:<20} {:<16} {:>13.4} {:>13.4} {:>13.4} | {:>13.4} {:>13.4} {:>13.4} | {:>7.2}% {:>6.0}%  {}",
                workload,
                metric,
                qa[0],
                qa[1],
                qa[2],
                qb[0],
                qb[1],
                qb[2],
                worse_share(&xa, &xb, *better) * 100.0,
                bound * 100.0,
                v.name()
            );
            match v {
                Verdict::Regressed => clean = false,
                Verdict::Unresolved => unresolved.push(format!(
                    "{workload} {metric}: spread {:.1}%",
                    spread * 100.0
                )),
                Verdict::Ok => {}
            }
        }
        for (which, file) in [("first", &a), ("second", &b)] {
            let lost = runs_lost(file, workload);
            if lost > 0 {
                println!(
                    "{workload:<20} {:<16} {lost} run(s) of the {which} file gave no result: regressed",
                    "runs"
                );
                clean = false;
            }
        }
        // No increase allowed: a run that fails more operations regressed.
        let (fa, fb) = (failed_total(&a, workload), failed_total(&b, workload));
        if fa > 0 || fb > 0 {
            let v = if fb > fa { "regressed" } else { "ok" };
            println!(
                "{workload:<20} {:<16} A {fa} failed operation(s), B {fb}: {v}",
                "failed"
            );
            clean &= fb <= fa;
        }
    }

    // Traced files: per-layer medians side by side. They carry no bound.
    let layers: Vec<_> = decl::per_layer()
        .into_iter()
        .flat_map(|m| decl::workload_names().map(move |w| (w, m.clone())))
        .filter_map(|(w, m)| {
            let (xa, xb) = (column(&a, w, &m.name), column(&b, w, &m.name));
            let (ma, mb) = (stats::median(&xa), stats::median(&xb));
            (ma != 0.0 || mb != 0.0).then_some((w, m, ma, mb))
        })
        .collect();
    for (workload, m, ma, mb) in layers {
        let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
        println!(
            "{:<20} {:<42} {:>16.4} {:>16.4} {:<16} B/A {:.3}{}",
            workload,
            m.name,
            ma,
            mb,
            m.unit,
            ratio,
            if m.unit == "count" && ma != mb {
                "  (counts differ)"
            } else {
                ""
            }
        );
    }

    for row in &unresolved {
        println!("unresolved: {row}");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        // Lower is better: 20 % worse against a 10 % bound.
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&slower, &steady, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&steady, &steady, Better::Lower, 0.10), Verdict::Ok);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(verdict(&steady, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&slower, &steady, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // 5 % worse stays inside the bound.
        let a_bit = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(verdict(&steady, &a_bit, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B worse than every run of A: resolved despite noise.
        let far = [200.0, 240.0, 280.0, 220.0, 260.0];
        assert_eq!(
            verdict(&noisy_a, &far, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&far, &noisy_a, Better::Lower, 0.10), Verdict::Ok);
    }

    /// A suite file of three runs in which every workload does `work` units
    /// per second, except that every run of `lost` (if any) crashed.
    fn file(work: f64, lost: Option<&str>) -> String {
        let columns = format!(
            "\"work_per_s\": [{work}, {}, {}], \"setup_s\": [1.0, 1.01, 0.99]",
            work * 1.01,
            work * 0.99
        );
        let workloads: Vec<String> = decl::workload_names()
            .map(|w| {
                let (seeds, columns) = if lost == Some(w) {
                    // What `suite` writes when no run printed a result line.
                    ("[]", "\"work_per_s\": [], \"setup_s\": []")
                } else {
                    ("[0, 0, 0]", columns.as_str())
                };
                format!(
                    "\"{w}\": {{\"seeds\": {seeds}, \"failed\": {seeds}, \"metrics\": {{{columns}}}}}"
                )
            })
            .collect();
        format!(
            "{{\"runs\": 3, \"workloads\": {{{}}}}}",
            workloads.join(", ")
        )
    }

    #[test]
    fn compare_reads_suite_files_and_flags_the_regressed_row() {
        let spec = decl::benchmark_json().to_json();
        assert_eq!(
            compare(&file(1000.0, None), &file(990.0, None), &spec),
            Ok(true)
        );
        assert_eq!(
            compare(&file(1000.0, None), &file(500.0, None), &spec),
            Ok(false)
        );
        assert!(compare("not json", &file(1.0, None), &spec).is_err());
    }

    #[test]
    fn a_workload_the_second_file_lost_is_a_regression() {
        let spec = decl::benchmark_json().to_json();
        assert_eq!(
            compare(
                &file(1000.0, None),
                &file(1000.0, Some("campaign_warm")),
                &spec
            ),
            Ok(false)
        );
        // The other way round the baseline is the incomplete one; that does
        // not pass either.
        assert_eq!(
            compare(
                &file(1000.0, Some("campaign_warm")),
                &file(1000.0, None),
                &spec
            ),
            Ok(false)
        );
    }
}
