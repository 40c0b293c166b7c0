//! Shared harness for the figure/table regenerators.
//!
//! Every table and figure of the paper's evaluation section (see DESIGN.md's
//! experiment index) is a row of [`specs::REGISTRY`]: a campaign spec
//! ([`specs`]) plus a renderer over the campaign's aggregates
//! ([`figures`]). `fig <name>` regenerates one row, `repro_all` the
//! paper's. They honour these environment variables:
//!
//! * `DXBAR_QUICK=1` — shrink the simulated windows (smoke-test mode used
//!   in CI; the shapes survive, the absolute numbers get noisier);
//! * `DXBAR_OUT=<dir>` — additionally write each figure's data as text and
//!   JSON into `<dir>`, plus a per-campaign provenance manifest;
//! * `DXBAR_CACHE=<dir>` — content-addressed result cache; re-invocations
//!   re-run only missing/invalidated points (see `crates/noc-campaign`);
//! * `DXBAR_SEEDS=<n>` — seed replicates per point; figures gain mean ±
//!   95 % CI columns when n > 1;
//! * `DXBAR_JOBS=<n>` — cap on worker threads (campaign executor and the
//!   rayon shim);
//! * `DXBAR_VERIFY=1` — run every simulated point under the runtime-oracle
//!   suite (`crates/noc-verify`): flit conservation, crossbar exclusivity,
//!   route legality, FIFO bounds, fairness guarantee, deadlock watchdog.
//!   Verified results use a disjoint `+verify` cache namespace; manifests
//!   gain a `verify` block and any violation makes the bin exit nonzero.
//!   Expect roughly 1.5-2x wall time per simulated point (see DESIGN.md's
//!   "Verified invariants" section for measured overhead).

#![forbid(unsafe_code)]

pub mod figures;
pub mod specs;
pub mod svg;

use dxbar_noc::{Design, RunResult, SimConfig};
use noc_campaign::{run_campaign, CampaignReport, CampaignSpec, ExecOptions};
use std::io::Write;
use std::path::PathBuf;

pub use dxbar_noc;
pub use noc_campaign;

/// The offered-load sweep of the paper ("network load varies from 0.1 to
/// 0.9 of the network capacity").
pub const PAPER_LOADS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// The environment variables `fig` and `repro_all` read (see the module
/// docs).
pub const FIGURE_ENV: &str = "DXBAR_QUICK DXBAR_OUT DXBAR_CACHE DXBAR_SEEDS DXBAR_JOBS \
     DXBAR_TILE_THREADS DXBAR_VERIFY";

/// Whether quick (smoke-test) mode is active.
pub fn quick_mode() -> bool {
    std::env::var("DXBAR_QUICK")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// The paper's simulation configuration (8x8 mesh, 128-bit flits), with
/// windows shrunk in quick mode.
pub fn paper_config() -> SimConfig {
    if quick_mode() {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 3_000,
            drain_cycles: 1_500,
            ..SimConfig::default()
        }
    } else {
        SimConfig::default()
    }
}

/// Cap for closed-loop (SPLASH) runs.
pub fn splash_cap() -> u64 {
    if quick_mode() {
        1_000_000
    } else {
        5_000_000
    }
}

/// Seed replicates per experiment point: `DXBAR_SEEDS=<n>` (default 1).
/// The first seed is always the paper's default seed, so single-seed runs
/// reproduce the historical figures exactly.
pub fn replicate_seeds() -> Vec<u64> {
    let n = std::env::var("DXBAR_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    derive_seeds(n)
}

/// `n` deterministic replicate seeds derived from the paper's base seed by
/// a golden-ratio stride (stream-quality spacing, stable across runs).
pub fn derive_seeds(n: usize) -> Vec<u64> {
    let base = SimConfig::default().seed;
    (0..n as u64)
        .map(|i| base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// Whether the current invocation aggregates more than one seed replicate
/// (figures switch to mean ± CI rendering).
pub fn multi_seed() -> bool {
    replicate_seeds().len() > 1
}

/// Executor options wired from the environment: `DXBAR_CACHE` for the
/// result cache, `DXBAR_JOBS` picked up by the executor itself.
pub fn campaign_options() -> ExecOptions {
    ExecOptions {
        cache_dir: std::env::var_os("DXBAR_CACHE").map(PathBuf::from),
        progress: true,
        ..ExecOptions::default()
    }
}

/// Run one figure's campaign with the environment-derived options, write
/// its provenance manifest into `DXBAR_OUT` (when set), and report
/// failures on stderr. Failed points do not abort the figure — the
/// renderer plots what completed, and [`figures::regenerate`] reports the
/// loss once everything is written.
pub fn run_figure_campaign(spec: &CampaignSpec) -> CampaignReport {
    let report = run_campaign(spec, &campaign_options())
        .unwrap_or_else(|e| panic!("invalid campaign spec {}: {e}", spec.name));
    if let Some(dir) = out_dir() {
        std::fs::create_dir_all(&dir).expect("create DXBAR_OUT dir");
        let path = dir.join(format!("{}.manifest.json", spec.name));
        std::fs::write(&path, report.manifest().to_json())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("[{}] wrote {}", spec.name, path.display());
    }
    for f in report.failed() {
        eprintln!("[{}] point FAILED: {}", spec.name, f.point.describe());
    }
    if report.verify_enabled {
        let v = report.total_violations();
        eprintln!("[{}] verification: {} invariant violation(s)", spec.name, v);
    }
    report
}

/// Emit a figure's rendered text to stdout and (with `DXBAR_OUT`) to disk,
/// alongside a JSON dump of the raw results.
pub fn emit(figure_id: &str, text: &str, results: &[RunResult]) {
    println!("{text}");
    if let Some(dir) = out_dir() {
        std::fs::create_dir_all(&dir).expect("create DXBAR_OUT dir");
        let txt_path = dir.join(format!("{figure_id}.txt"));
        std::fs::File::create(&txt_path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .unwrap_or_else(|e| panic!("write {}: {e}", txt_path.display()));
        let json_path = dir.join(format!("{figure_id}.json"));
        let json = serde_json::to_string_pretty(results).expect("serialize results");
        std::fs::write(&json_path, json)
            .unwrap_or_else(|e| panic!("write {}: {e}", json_path.display()));
        eprintln!(
            "[{figure_id}] wrote {} and {}",
            txt_path.display(),
            json_path.display()
        );
    }
}

/// Write an SVG chart next to the figure's text/JSON output (only when
/// `DXBAR_OUT` is set).
pub fn emit_svg(figure_id: &str, svg: &str) {
    if let Some(dir) = out_dir() {
        std::fs::create_dir_all(&dir).expect("create DXBAR_OUT dir");
        let path = dir.join(format!("{figure_id}.svg"));
        std::fs::write(&path, svg).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("[{figure_id}] wrote {}", path.display());
    }
}

fn out_dir() -> Option<PathBuf> {
    std::env::var_os("DXBAR_OUT").map(PathBuf::from)
}

/// When a spec-file parse error is the deserializer's unknown-[`Design`]
/// complaint, render a hint listing the accepted variant spellings — a
/// typo in a hand-written campaign spec should cost one glance, not a
/// trip to the source. `None` for every other parse error.
pub fn unknown_design_hint(err: &str) -> Option<String> {
    err.contains("unknown Design variant").then(|| {
        let names: Vec<String> = Design::ALL.iter().map(|d| format!("{d:?}")).collect();
        format!("known designs: {}", names.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_loads_span_the_papers_range() {
        assert_eq!(PAPER_LOADS.len(), 9);
        assert_eq!(PAPER_LOADS[0], 0.1);
        assert_eq!(PAPER_LOADS[8], 0.9);
    }

    #[test]
    fn paper_config_is_the_default_8x8() {
        // Outside quick mode the evaluation uses the paper defaults.
        if !quick_mode() {
            let c = paper_config();
            assert_eq!(c.width, 8);
            assert_eq!(c.warmup_cycles, 10_000);
        }
    }
}
