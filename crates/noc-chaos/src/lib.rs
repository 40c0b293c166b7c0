//! # noc-chaos — deterministic fault injection for the campaign stack
//!
//! The storage layer under a long campaign sees real-world failure:
//! transient `EIO`/`ENOSPC`, power-cut torn writes, silent bit-rot, slow
//! or contended lock directories, and cooperating processes dying while
//! they hold work. This crate turns those into a *repeatable experiment*:
//!
//! * [`ChaosPlan`] is a seeded [`noc_campaign::io::IoPolicy`] — a pure
//!   hash of `(seed, op, file, occurrence)` decides every fault, so runs
//!   are reproducible regardless of thread interleaving, and every
//!   injection is ledgered with its eventual [`Resolution`];
//! * [`soak::run_soak`] drives the end-to-end proof: a verify-enabled
//!   campaign under a sweep of chaos seeds (plus an optional
//!   claim-holder-kill phase) must render **byte-identical** aggregate
//!   tables to the fault-free baseline with **zero** oracle violations,
//!   and every injected fault must end retried, detected, or quarantined
//!   — never silently dropped.
//!
//! The hardening this harness exercises lives in `noc_campaign::io`
//! (capped-backoff retries), `noc_campaign::cache` (payload checksums,
//! identity checks, corruption-is-a-miss) and `noc_daemon` (journal
//! salvage, HTTP request deadlines); see `DESIGN.md` §16.

#![forbid(unsafe_code)]

pub mod plan;
pub mod soak;

pub use plan::{ChaosConfig, ChaosPlan, Injection, LedgerSummary, Resolution};
pub use soak::{run_soak, ClaimHolderSpawn, ClaimKill, SeedRun, SoakOptions, SoakReport};
