//! Cycle-accurate NoC simulation engine.
//!
//! The engine is a synchronous two-phase simulator:
//!
//! 1. **Router phase** — every router receives the flits delivered by its
//!    incoming links this cycle (plus returned credits and an injection
//!    offer) in a [`router::StepCtx`], performs its switch allocation and
//!    traversal, and fills in the outputs.
//! 2. **Link phase** — the engine moves granted flits onto fixed-latency
//!    delay lines, returns credits upstream, ejects/reassembles packets,
//!    and handles SCARAB-style drop/NACK/retransmission bookkeeping.
//!
//! Timing model (matches the paper's pipelines):
//! * data links have latency 2: a flit switched (ST) in cycle `t` spends
//!   `t+1` on the wire (LT) and is in the downstream router's SA/ST stage
//!   at `t+2` — the bufferless 2-stage pipeline;
//! * the 3-stage baseline adds one internal stall cycle before a buffered
//!   flit's first switch-allocation attempt (its RC stage);
//! * credit wires have latency 1.
//!
//! Router micro-architectures live in `noc-baseline`, `dxbar` and
//! `noc-zoo`; they implement [`router::RouterModel`] and share the
//! deflection, ejection and buffer operations of [`datapath`].

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod datapath;
pub mod diagnostics;
pub mod network;
pub mod reassembly;
pub mod report;
pub mod resilience;
pub mod router;
pub mod runner;
pub mod source_queue;
pub(crate) mod tiles;
pub mod verify;

pub use network::Network;
pub use report::{AppStats, RunResult};
pub use resilience::{AckMsg, ResilienceState};
pub use router::{RouterFactory, RouterModel, StepCtx};
pub use runner::{run, RunMode};
pub use verify::{FaultEvent, Interest, Observer, ProbeBuf, ProbeEvent, StepInputs, StepRecord};

// Downstream crates (router models, binaries) reach trace types through
// the engine so they agree on the version the engine was built with.
pub use noc_trace;

/// Data-link latency in cycles (ST -> LT -> downstream SA/ST).
pub const LINK_LATENCY: u64 = 2;
/// Credit-return wire latency in cycles.
pub const CREDIT_LATENCY: u64 = 1;
