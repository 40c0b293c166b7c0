//! # dxbar-noc
//!
//! A full reproduction of *"Energy-Efficient and Fault-Tolerant Unified
//! Buffer and Bufferless Crossbar Architecture for NoCs"* (Zhang, Morris,
//! DiTomaso, Kodi — IPDPS Workshops 2012): a cycle-accurate NoC simulator,
//! the DXbar dual-crossbar and unified dual-input crossbar routers, the
//! paper's four comparison designs, its energy/area models, its traffic
//! patterns and SPLASH-2 workload model, and its fault-injection framework.
//!
//! ## Quick start
//!
//! ```
//! use dxbar_noc::{run, Design, RunPlan, SimConfig};
//! use dxbar_noc::noc_traffic::patterns::Pattern;
//!
//! let cfg = SimConfig {
//!     warmup_cycles: 500,
//!     measure_cycles: 1_000,
//!     drain_cycles: 500,
//!     ..SimConfig::default()
//! };
//! // Offered load = 0.3 of network capacity, uniform random traffic.
//! let plan = RunPlan::synthetic(Design::DXbarDor, &cfg, Pattern::UniformRandom, 0.3);
//! let result = run(plan).result;
//! assert!(result.accepted_fraction > 0.2);
//! ```
//!
//! A [`RunPlan`] also carries the faults, the trace sink, the oracle suite
//! and the tile-worker count of a run; [`run`] is the only entry point.
//! [`cli::Args`] is the argument loop every binary of the workspace uses.
//!
//! See `examples/` for larger scenarios and `crates/bench` for the
//! regenerators of every table and figure in the paper.

#![forbid(unsafe_code)]

pub mod cli;
pub mod designs;
pub mod kind;
pub mod plan;

pub use designs::Design;
pub use kind::RouterKind;
pub use noc_core::SimConfig;
pub use noc_sim::{Network, RunResult};
pub use plan::{
    run, run_synthetic, run_synthetic_resilient, run_synthetic_traced, run_synthetic_verified,
    RunOutput, RunPlan, Workload,
};

// Re-export the component crates under stable names.
pub use dxbar;
pub use noc_baseline;
pub use noc_core;
pub use noc_faults;
pub use noc_power;
pub use noc_resilience;
pub use noc_routing;
pub use noc_sim;
pub use noc_topology;
pub use noc_traffic;
pub use noc_verify;
pub use noc_zoo;
