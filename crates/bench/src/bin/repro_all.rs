//! One-command reproduction of the paper's evaluation section.
//!
//! First runs the **unified campaign** — the union grid of every figure
//! and ablation, deduplicated and simulated in parallel into a shared
//! result cache — then invokes each figure bin, which finds all of its
//! points already cached and only renders. A bin failure (or a failed
//! campaign point) is reported and the remaining bins still run; the
//! process exits nonzero if anything failed.
//!
//! ```text
//! DXBAR_OUT=results cargo run --release -p bench --bin repro_all
//! ```
//!
//! Set `DXBAR_QUICK=1` for a fast smoke run, `DXBAR_SEEDS=n` for
//! multi-seed figures with confidence intervals, `DXBAR_CACHE=dir` to
//! choose the cache location (defaults to `<DXBAR_OUT>/campaign-cache`,
//! falling back to `target/campaign-cache`), and `DXBAR_VERIFY=1` to run
//! the entire reproduction under the runtime-oracle suite (the campaign
//! and every figure bin then fail on any invariant violation; verified
//! results fill a disjoint `+verify` cache namespace).

use bench::{campaign_options, run_figure_campaign};
use dxbar_noc::noc_verify::verify_from_env;
use std::path::PathBuf;
use std::process::Command;

const BINS: [&str; 7] = [
    "tables",
    "fig05_throughput_ur",
    "fig06_energy_ur",
    "fig07_08_synthetic",
    "fig09_10_splash",
    "fig11_12_faults",
    "ablations",
];

fn cache_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("DXBAR_CACHE") {
        return PathBuf::from(dir);
    }
    match std::env::var_os("DXBAR_OUT") {
        Some(out) => PathBuf::from(out).join("campaign-cache"),
        None => PathBuf::from("target").join("campaign-cache"),
    }
}

fn main() {
    bench::no_args(env!("CARGO_BIN_NAME"), bench::FIGURE_ENV);
    let cache = cache_dir();
    // The figure bins read the cache location from the environment; the
    // unified campaign below fills it so they only render.
    std::env::set_var("DXBAR_CACHE", &cache);
    let verify = verify_from_env();
    if verify {
        // Make the switch explicit for the figure-bin children even if the
        // user spelled it "true" etc.
        std::env::set_var("DXBAR_VERIFY", "1");
    }
    eprintln!(
        "=== unified campaign (cache: {}{}) ===",
        cache.display(),
        if verify { ", verified" } else { "" }
    );
    assert!(
        campaign_options().cache_dir.is_some(),
        "cache must be active for repro_all"
    );
    let spec = bench::specs::repro_all();
    let report = run_figure_campaign(&spec);

    let mut failures: Vec<String> = report
        .failed()
        .map(|o| format!("campaign point {}", o.point.describe()))
        .collect();
    if report.total_violations() > 0 {
        failures.push(format!(
            "{} invariant violation(s) under verification",
            report.total_violations()
        ));
    }

    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for bin in BINS {
        eprintln!("=== running {bin} ===");
        let path = dir.join(bin);
        let status = Command::new(&path)
            .env("DXBAR_CACHE", &cache)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            eprintln!("=== {bin} FAILED with {status} ===");
            failures.push(format!("{bin} exited with {status}"));
        }
    }

    if !failures.is_empty() {
        eprintln!(
            "=== reproduction INCOMPLETE: {} failure(s) ===",
            failures.len()
        );
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    eprintln!("=== all figures regenerated ===");
}
