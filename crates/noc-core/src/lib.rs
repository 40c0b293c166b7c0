//! Core types shared by every crate of the DXbar NoC reproduction.
//!
//! This crate deliberately has no knowledge of topologies, routers or the
//! simulation engine. It provides:
//!
//! * [`types`] — node identifiers, cardinal directions, port indices;
//! * [`arbiter`] — rotating-priority arbitration over request bit vectors
//!   and the buffered baselines' separable VC allocator built from it;
//! * [`flit`] — the unit of switching ([`Flit`]) and packet descriptors;
//! * [`queue`] — a fixed-capacity ring-buffer FIFO used for input buffers;
//! * [`pool`] — slab arena for flits parked in a buffer bank ([`FlitId`]
//!   handles, free-list reuse);
//! * [`inline`] — fixed-capacity stack vector for per-cycle router scratch;
//! * [`rng`] — a small deterministic PRNG (SplitMix64 / xoshiro256**) so
//!   every experiment is reproducible from a single seed;
//! * [`hash`] — a seedless Fx-style hasher for per-flit maps keyed by
//!   simulator-internal ids;
//! * [`stats`] — event counters and latency accounting shared by all router
//!   models;
//! * [`config`] — the simulation configuration (mesh size, buffer depth,
//!   pipeline latencies, warmup/measurement windows).

pub mod arbiter;
pub mod config;
pub mod crc;
pub mod flit;
pub mod hash;
pub mod inline;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod types;

pub use config::{SimConfig, Topology};
pub use flit::{Flit, FlitKind, PacketDesc, PacketId};
pub use inline::InlineVec;
pub use pool::{FlitId, FlitPool};
pub use queue::FixedQueue;
pub use rng::Rng;
pub use stats::{EventCounts, LatencyStats, NetStats};
pub use types::{
    Cycle, Direction, NodeId, OutPort, PortSet, ALL_DIRECTIONS, LINK_DIRECTIONS, NUM_LINK_PORTS,
    NUM_PORTS,
};
