//! Runtime invariant oracles and an exhaustive allocator
//! micro-model-checker for the DXbar NoC reproduction.
//!
//! Two halves:
//!
//! * **Runtime oracles** ([`oracle::Verifier`]) — a cheap per-cycle
//!   [`noc_sim::Observer`] checking flit conservation/no-duplication,
//!   crossbar exclusivity, route legality, FIFO capacity bounds, the
//!   fairness-counter service guarantee, and a deadlock/livelock watchdog.
//!   Each node is held to the [`DesignProfile`] row its caller supplies.
//!   Attach via [`runner::run_observed`], or enable everywhere with the
//!   `DXBAR_VERIFY=1` environment variable / `--verify` bench flags.
//! * **Micro-model-checker** ([`checker`]) — exhaustive state-space
//!   enumeration over single-router allocator configurations (DXbar's
//!   greedy 4x5 primary and 5x5 secondary allocation, and the unified
//!   design's separable dual-input allocator with two serial V:1 arbiters
//!   plus the conflict-free swap), asserting no grant conflicts, work
//!   conservation, and swap-logic correctness. Runs as ordinary
//!   `cargo test -p noc-verify`. The [`zoo`] module extends the same
//!   treatment to the router zoo: differential model-checking of the DAMQ
//!   shared-slab allocator (no slot double-grant, free-list conservation,
//!   work conservation at saturation) and of MinBD's ejection/redirection
//!   priority logic (silver election, single-step invariants).
//!
//! Violations carry structured context ([`violation::Violation`]: cycle,
//! router, flit ids) and come back in the [`VerifyReport`].

#![forbid(unsafe_code)]

pub mod cdg;
pub mod checker;
pub mod ledger;
pub mod oracle;
pub mod profile;
pub mod runner;
pub mod violation;
pub mod zoo;

pub use checker::{CheckError, CheckerReport};
pub use ledger::FlitLedger;
pub use oracle::{CheckCounts, Verifier, VerifyOptions, VerifyReport};
pub use profile::{DesignProfile, RouteRule};
pub use runner::{run_observed, VerifyError};
pub use violation::{Violation, ViolationKind};

/// Whether `DXBAR_VERIFY` asks for verified runs ("1" or "true"). The
/// campaign engine and the CLI bins all share this switch.
pub fn verify_from_env() -> bool {
    std::env::var("DXBAR_VERIFY")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true")
        })
        .unwrap_or(false)
}

/// Cache namespace for results produced under a given verification mode.
///
/// Verified and unverified results must never share cache entries: a
/// verified hit asserts "this result passed the oracle suite when it was
/// stored", which an unverified run cannot claim. The campaign engine and
/// the daemon both derive their cache salt through this single function, so
/// per-job `--verify` choices (the daemon runs verified and unverified jobs
/// against one cache directory concurrently) land in disjoint namespaces by
/// construction.
pub fn cache_namespace(code_salt: &str, verify: bool) -> String {
    if verify {
        format!("{code_salt}+verify")
    } else {
        code_salt.to_string()
    }
}

#[cfg(test)]
mod namespace_tests {
    use super::cache_namespace;

    #[test]
    fn verified_namespace_is_disjoint_and_stable() {
        assert_eq!(cache_namespace("v3", false), "v3");
        assert_eq!(cache_namespace("v3", true), "v3+verify");
        assert_ne!(cache_namespace("v3", true), cache_namespace("v3", false));
        // A salt that already names a verified namespace stays stable under
        // the unverified mapping (no accidental double suffixing elsewhere).
        assert_eq!(cache_namespace("v3+verify", false), "v3+verify");
    }
}
