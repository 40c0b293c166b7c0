//! `noc-benchmark suite`: every workload, several seeds, one result file.
//!
//! Each run is a child process of this binary (so `peak_rss_kb` is that
//! workload's own high-water mark), started one after another. The file
//! keeps every run's value of every metric; `compare` reads two of them.

use crate::decl;
use crate::host;
use crate::run::{write_file, BENCH_DIR};
use crate::stats;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    pub runs: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// The last stdout line of one child run, parsed.
fn run_child(workload: &str, seed: u64, args: &SuiteArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited: the child's report scrolls by as it runs.
    cmd.stderr(Stdio::inherit());
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result = serde_json::parse(line)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if !output.status.success() {
        eprintln!("{workload} seed {seed}: exited with {}", output.status);
    }
    Ok(result)
}

pub fn suite(args: &SuiteArgs) -> bool {
    let declared = if args.trace {
        decl::per_layer()
    } else {
        decl::end_to_end()
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in decl::workload_names() {
        let mut seeds = Vec::new();
        let mut attempted = Vec::new();
        let mut failed = Vec::new();
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); declared.len()];
        for seed in 1..=args.runs {
            let result = match run_child(workload, seed, args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    all_correct = false;
                    continue;
                }
            };
            all_correct &= result.field("correct").as_bool() == Some(true);
            seeds.push(Value::U64(seed));
            attempted.push(Value::U64(result.field("attempted").as_u64().unwrap_or(0)));
            failed.push(Value::U64(result.field("failed").as_u64().unwrap_or(0)));
            for (m, column) in declared.iter().zip(&mut values) {
                match result
                    .field("metrics")
                    .field(&m.name)
                    .field("value")
                    .as_f64()
                {
                    Some(v) => column.push(v),
                    None => {
                        eprintln!("{workload} seed {seed}: metric {} is missing", m.name);
                        all_correct = false;
                    }
                }
            }
        }
        eprintln!("-- {workload}: {} run(s)", seeds.len());
        for (m, column) in declared.iter().zip(&values) {
            let [q1, q2, q3] = stats::quartiles(column);
            let spread = stats::spread_share(column);
            match m.bound {
                Some(bound) => eprintln!(
                    "   {:<18} median {:>14.4} {:<4} q1 {:>14.4} q3 {:>14.4} spread {:>6.2}% of bound {:.0}%{}",
                    m.name,
                    q2,
                    m.unit,
                    q1,
                    q3,
                    spread * 100.0,
                    bound * 100.0,
                    if spread > bound { "  <-- wider than the bound" } else { "" },
                ),
                None => eprintln!("   {:<42} median {:>16.4} {}", m.name, q2, m.unit),
            }
        }
        workloads.push((
            workload.to_string(),
            Value::Object(vec![
                ("seeds".into(), Value::Array(seeds)),
                ("attempted".into(), Value::Array(attempted)),
                ("failed".into(), Value::Array(failed)),
                (
                    "metrics".into(),
                    Value::Object(
                        declared
                            .iter()
                            .zip(values)
                            .map(|(m, column)| {
                                (
                                    m.name.clone(),
                                    Value::Array(column.into_iter().map(Value::F64).collect()),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }

    let file = Value::Object(vec![
        ("provenance".into(), host::provenance()),
        ("seconds".into(), Value::F64(args.seconds)),
        ("runs".into(), Value::U64(args.runs)),
        ("trace".into(), Value::Bool(args.trace)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    write_file(&args.out, &file.to_json_pretty());
    eprintln!("wrote {}", args.out.display());
    if args.trace {
        merge_traces();
    }
    all_correct
}

/// Concatenate the per-workload span files of a traced suite into
/// `out/trace.json`.
fn merge_traces() {
    let out = Path::new(BENCH_DIR).join("out");
    let mut spans = Vec::new();
    for workload in decl::workload_names() {
        let path = out.join(format!("trace-{workload}.json"));
        match std::fs::read_to_string(&path).map(|t| serde_json::parse(&t)) {
            Ok(Ok(Value::Array(rows))) => spans.extend(rows),
            _ => eprintln!("no spans from {workload} ({} unreadable)", path.display()),
        }
    }
    let path = out.join("trace.json");
    write_file(&path, &Value::Array(spans).to_json());
    eprintln!("wrote {}", path.display());
}
