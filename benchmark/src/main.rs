//! One benchmark for the whole stack — cycle kernel, campaign engine,
//! daemon — end to end and per layer. See README.md beside this package.
//!
//! ```text
//! noc-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last stdout line is the result object
//! noc-benchmark suite [--runs N] [--seconds S] [--trace 0|1] [--smoke] --out FILE
//!     every workload, seeds 1..=N, one child process per run
//! noc-benchmark compare A.json B.json
//!     hold suite file B to suite file A by the bounds of BENCHMARK.json
//! noc-benchmark bless
//!     re-pin expected/fingerprints.json at the pinned seed
//! noc-benchmark spec
//!     print BENCHMARK.json as this binary declares it
//! ```
//!
//! Exit codes: 0 correct, 1 a check failed or a row regressed, 2 usage.

mod compare;
mod decl;
mod host;
mod probes;
mod run;
mod span;
mod stats;
mod steady;
mod suite;
mod workloads;

use run::{Cx, RunArgs, BENCH_DIR};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "usage:
  noc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  noc-benchmark suite [--runs N] [--seconds S] [--trace 0|1] [--smoke] --out FILE
  noc-benchmark compare A.json B.json
  noc-benchmark bless
  noc-benchmark spec";

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// `--flag value` pairs and bare flags of one command line.
struct Flags {
    pairs: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            bare: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a:?}"));
            }
            if bare.contains(&a.as_str()) {
                flags.bare.push(a.clone());
            } else {
                let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.pairs.push((a.clone(), value.clone()));
            }
        }
        Ok(flags)
    }

    fn has(&self, flag: &str) -> bool {
        self.bare.iter().any(|f| f == flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(f, _)| f == flag) {
            Some((_, v)) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option {f}")),
            None => Ok(()),
        }
    }
}

fn trace_flag(flags: &Flags) -> Result<bool, String> {
    match flags.get::<u8>("--trace", 0)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("--trace takes 0 or 1, got {other}")),
    }
}

fn seconds_flag(flags: &Flags) -> Result<f64, String> {
    let seconds = flags.get("--seconds", decl::RUN_SECONDS as f64)?;
    if (0.0..=600.0).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds must lie in 0..=600, got {seconds}"))
    }
}

/// Variables the simulator's executors and presets read; a benchmark run
/// must not inherit them from the caller's shell.
const FOREIGN_ENV: [&str; 8] = [
    "DXBAR_QUICK",
    "DXBAR_JOBS",
    "DXBAR_TILE_THREADS",
    "DXBAR_TILE_CANARY",
    "DXBAR_VERIFY",
    "DXBAR_SEEDS",
    "DXBAR_CACHE",
    "DXBAR_OUT",
];

fn run_one(args: &[String]) -> ExitCode {
    let parsed = Flags::parse(args, &["--smoke"]).and_then(|f| {
        f.known(&["--workload", "--seed", "--seconds", "--trace"])?;
        Ok(RunArgs {
            workload: f.get("--workload", String::new())?,
            seed: f.get("--seed", run::PINNED_SEED)?,
            seconds: seconds_flag(&f)?,
            trace: trace_flag(&f)?,
            smoke: f.has("--smoke"),
        })
    });
    let args = match parsed {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(workload) = workloads::find(&args.workload) else {
        return usage(&format!(
            "--workload must be one of: {}",
            decl::workload_names().collect::<Vec<_>>().join(", ")
        ));
    };
    let mut cx = Cx::new(args, workload.timing);
    cx.hold_to_pins();
    (workload.run)(&mut cx);
    let (line, correct) = cx.finish();
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_suite(args: &[String]) -> ExitCode {
    let parsed = Flags::parse(args, &["--smoke"]).and_then(|f| {
        f.known(&["--runs", "--seconds", "--trace", "--out"])?;
        let out: String = f.get("--out", String::new())?;
        if out.is_empty() {
            return Err("suite needs --out FILE".into());
        }
        Ok(suite::SuiteArgs {
            runs: f.get("--runs", 10)?,
            seconds: seconds_flag(&f)?,
            trace: trace_flag(&f)?,
            smoke: f.has("--smoke"),
            out: PathBuf::from(out),
        })
    });
    match parsed {
        Ok(args) if suite::suite(&args) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => usage(&e),
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare takes two result files");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let spec = Path::new(BENCH_DIR).join("../BENCHMARK.json");
    let outcome = read(a).and_then(|a| {
        let b = read(b)?;
        let spec = read(&spec.to_string_lossy())?;
        compare::compare(&a, &b, &spec)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => usage(&e),
    }
}

/// Re-pin the kernel fingerprints: run the three kernel workloads at the
/// pinned seed for their minimum of passes and write what they produced.
fn bless() -> ExitCode {
    let mut workloads = Vec::new();
    for workload in ["kernel_8x8", "kernel_64x64_tiled", "kernel_8x8_observed"] {
        let args = RunArgs {
            workload: workload.into(),
            seed: run::PINNED_SEED,
            seconds: 0.0,
            trace: false,
            smoke: false,
        };
        let body = workloads::find(workload).expect("kernel workloads exist");
        let mut cx = Cx::new(args, body.timing);
        (body.run)(&mut cx);
        let rows = cx
            .pins
            .iter()
            .map(|(row, stats, flits)| {
                let pinned = Value::Object(vec![
                    ("stats".into(), Value::Str(stats.clone())),
                    ("flits".into(), Value::U64(*flits)),
                ]);
                (row.clone(), pinned)
            })
            .collect();
        workloads.push((workload.to_string(), Value::Object(rows)));
        let (_, correct) = cx.finish();
        if !correct {
            eprintln!("{workload}: a check failed; nothing pinned");
            return ExitCode::from(1);
        }
    }
    let path = run::expected_path();
    run::write_file(&path, &(Value::Object(workloads).to_json_pretty() + "\n"));
    eprintln!("pinned {}", path.display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    for var in FOREIGN_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => run_suite(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("bless") if args.len() == 1 => bless(),
        Some("spec") if args.len() == 1 => {
            println!("{}", decl::benchmark_json().to_json_pretty());
            ExitCode::SUCCESS
        }
        Some(first) if first.starts_with("--") => run_one(&args),
        _ => usage("no command given"),
    }
}
