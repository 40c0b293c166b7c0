//! Unified fault-and-recovery layer.
//!
//! The paper (§III-E) models one fault class: permanent crossbar failures
//! with a BIST-style detection delay, reproduced in `noc-faults`. Real NoCs
//! additionally face **permanent link failures** and **transient soft
//! errors** (particle strikes flipping payload bits or swallowing a flit in
//! flight). This crate composes all three into one schedule and provides the
//! end-to-end recovery machinery that makes them survivable:
//!
//! * [`ResiliencePlan`] — one composable plan: the existing crossbar
//!   [`FaultPlan`], a list of [`LinkFault`]s with mid-run onsets, and a
//!   [`TransientSpec`] driving a seeded Poisson process of soft errors.
//! * [`TransientEngine`] — the runtime sampler that turns the Poisson spec
//!   into per-cycle, per-link corruption/drop events.
//! * [`SenderNi`] / [`RetransmitConfig`] — a source network-interface
//!   retransmission protocol: per-flit sequence numbers, ACK/NACK, a
//!   retransmit buffer, timeouts with capped exponential backoff, and a
//!   bounded retry budget after which the flit is *counted* lost (never
//!   silently dropped).
//! * [`reachability`] — a BFS pre-check over the mesh minus failed links
//!   that reports partitioned node pairs up front instead of letting a
//!   simulation hang on an unreachable destination.
//!
//! Detection is CRC-based: flits carry a CRC-16 over their payload
//! (`noc_core::crc`), sealed at the source NI and checked at every ejection
//! port. The engine integration lives in `noc-sim` (`Network::set_resilience`);
//! the conservation semantics are attested by `noc-verify`'s extended ledger
//! and taint oracle.

#![forbid(unsafe_code)]

pub mod arq;
pub mod plan;
pub mod transient;

pub use arq::{RetransmitConfig, SenderNi, TimeoutAction};
pub use noc_faults::FaultPlan;
pub use plan::{reachability, LinkFault, ReachReport, ResiliencePlan};
pub use transient::{TransientEffect, TransientEngine, TransientEvent, TransientSpec};
