//! One-command reproduction of the paper's evaluation section.
//!
//! First runs the **unified campaign** — the union grid of every figure
//! and ablation, deduplicated and simulated in parallel into a shared
//! result cache — then regenerates each of the paper's tables and figures
//! (the `paper` rows of `bench::specs::REGISTRY`) exactly as `fig <name>`
//! would: every one finds its points already cached and only renders. A
//! figure that fails (a failed campaign point, a panicking renderer) is
//! reported and the remaining ones still run; the process exits nonzero if
//! anything failed.
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
//! and every figure then fail on any invariant violation; verified
//! results fill a disjoint `+verify` cache namespace).

use bench::figures::{isolated, regenerate};
use bench::{campaign_options, run_figure_campaign, FIGURE_ENV};
use dxbar_noc::cli::Args;
use dxbar_noc::noc_verify::verify_from_env;
use std::path::PathBuf;

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
    let usage = format!("usage: repro_all   (no arguments; environment: {FIGURE_ENV})");
    let mut args = Args::new(&usage, &usage);
    if let Some(arg) = args.next_arg() {
        args.fail(&format!("unexpected argument '{arg}'"));
    }
    let cache = cache_dir();
    // Every campaign reads the cache location from the environment; the
    // unified campaign below fills it so the figures only render.
    std::env::set_var("DXBAR_CACHE", &cache);
    let verify = verify_from_env();
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

    for entry in bench::specs::REGISTRY.iter().filter(|e| e.paper) {
        eprintln!("=== running {} ===", entry.alias);
        if let Err(e) = isolated(|| regenerate(entry)) {
            eprintln!("=== {} FAILED ===", entry.alias);
            failures.push(format!("{}: {e}", entry.alias));
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
