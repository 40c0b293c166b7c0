//! Per-flit lifecycle tracing for the DXbar NoC simulator.
//!
//! This crate records what happens to every flit as it moves through the
//! network — injection, hops, buffer residency, deflections, secondary
//! crossbar diversions, fairness flips, drops, ejection — plus per-cycle
//! time-series samples of aggregate state. Recorders are ring-buffered so
//! long runs stay bounded; exporters write JSONL (one event per line) and
//! Chrome `chrome://tracing` / Perfetto trace-event JSON.
//!
//! Routers emit events through [`TraceBuf`], which is disabled unless a
//! [`RecordingSink`] is attached to the network, so the untraced hot path
//! costs one branch per emission site.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod jsonl;
pub mod lifetime;
pub mod recorder;
pub mod series;
pub mod sink;

pub use chrome::{chrome_trace, chrome_trace_json};
pub use event::{TraceEvent, TraceEventKind};
pub use jsonl::{from_jsonl, to_jsonl, write_jsonl};
pub use lifetime::{
    percentile_of_sorted, FlitLifetime, FlitLifetimes, LifetimeSummary, SLOWEST_KEPT,
};
pub use recorder::RingRecorder;
pub use series::{CycleSample, SampleSeries, SeriesSet};
pub use sink::{RecordingSink, TraceBuf};
