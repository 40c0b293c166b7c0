//! # noc-campaign — declarative experiment campaigns
//!
//! The paper's evaluation is a large grid: designs × traffic patterns ×
//! offered loads × fault fractions × seed replicates, plus closed-loop
//! SPLASH-2 points. This crate turns that grid into data instead of
//! hand-rolled loops:
//!
//! * [`CampaignSpec`] declares the grid as a serializable value and expands
//!   it into fully-resolved [`PointSpec`]s;
//! * [`run_campaign`] executes points in parallel with per-point panic
//!   isolation (a panicking point is recorded as `Failed { reason }` and its
//!   siblings keep running) and a configurable retry policy;
//! * [`cache::ResultCache`] is a content-addressed on-disk cache keyed by a
//!   stable hash of each point's full configuration plus a code-version
//!   salt ([`CODE_VERSION`]) — re-invoking a campaign after a crash, Ctrl-C
//!   or spec edit re-runs only the missing or invalidated points;
//! * [`agg::Aggregate`] folds seed replicates into mean + 95 % confidence
//!   intervals for any metric of [`dxbar_noc::RunResult`];
//! * [`manifest::CampaignManifest`] records per-point provenance (content
//!   key, cache hit/miss, wall time, attempts, failure reason).
//!
//! ## Example
//!
//! ```
//! use noc_campaign::{run_campaign, CampaignSpec, ExecOptions, PointGroup, WorkloadAxis};
//! use dxbar_noc::{Design, SimConfig};
//! use dxbar_noc::noc_traffic::patterns::Pattern;
//!
//! let cfg = SimConfig {
//!     width: 4,
//!     height: 4,
//!     warmup_cycles: 50,
//!     measure_cycles: 200,
//!     drain_cycles: 100,
//!     ..SimConfig::default()
//! };
//! let spec = CampaignSpec::new("doc-example").with_group(PointGroup {
//!     label: "tiny".into(),
//!     config: cfg,
//!     designs: vec![Design::DXbarDor],
//!     workload: WorkloadAxis::Synthetic {
//!         patterns: vec![Pattern::UniformRandom],
//!         loads: vec![0.2, 0.3],
//!     },
//!     fault_fractions: vec![],
//!     transient_rates: vec![],
//!     link_faults: vec![],
//!     seeds: vec![1, 2],
//!     tag: None,
//! });
//! let report = run_campaign(&spec, &ExecOptions::default()).unwrap();
//! assert_eq!(report.outcomes.len(), 4); // 2 loads x 2 seeds
//! assert_eq!(report.failed_count(), 0);
//! let aggs = report.aggregates();
//! assert_eq!(aggs.len(), 2); // seeds folded into one aggregate per load
//! assert_eq!(aggs[0].n(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod agg;
pub mod cache;
pub mod coop;
pub mod exec;
pub mod io;
pub mod manifest;
pub mod spec;

pub use agg::{render_table, Aggregate, MetricSummary};
pub use cache::ResultCache;
pub use coop::{CacheLocks, Claim, PointClaim};
pub use exec::{
    execute_point, panic_message, run_campaign, run_campaign_with, run_point, simulate_point,
    verify_from_env, CampaignReport, ExecOptions, ExecPoint, PointFailure, PointOutcome,
    PointStatus, PointVerify,
};
pub use io::{no_faults, IoFault, IoOp, IoPolicy, NoFaults};
pub use manifest::{CampaignManifest, PointRecord, QuarantinedPoint, VerifyBlock};
pub use spec::{CampaignSpec, PointGroup, PointSpec, RetryPolicy, Workload, WorkloadAxis};

/// Code-version salt mixed into every cache key. Bump whenever the
/// simulator's semantics change in a way that invalidates cached results
/// (router behaviour, energy model, traffic generation, stat definitions)
/// — or, as in v4 → v5, when the cache *entry format* changes (v5 added
/// the `sum` payload checksum; entries without it must re-run, not
/// silently skip verification).
pub const CODE_VERSION: &str = "dxbar-sim-v5";

/// FNV-1a 64-bit over a byte string — the stable content hash behind cache
/// keys and spec hashes. Chosen over `DefaultHasher` because its output is
/// specified and stable across Rust releases and platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_discriminating() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }
}
