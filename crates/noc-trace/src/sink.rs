//! The sink abstraction routers and the engine write trace data into.
//!
//! Two halves:
//!
//! * [`TraceBuf`] — a per-step staging buffer embedded in the simulator's
//!   `StepCtx`. Routers call [`TraceBuf::emit`] with a closure; when
//!   tracing is off (the default) the closure is never run, so the cost is
//!   a single branch per emission site.
//! * [`TraceSink`] — where staged events and per-cycle samples go.
//!   [`NullSink`] discards everything and keeps `TraceBuf` disabled;
//!   [`RecordingSink`] feeds a [`RingRecorder`], a [`SeriesSet`] and a
//!   [`FlitLifetimes`] population.

use crate::event::TraceEvent;
use crate::lifetime::FlitLifetimes;
use crate::recorder::RingRecorder;
use crate::series::{CycleSample, SeriesSet};

/// Receiver for trace events and per-cycle samples.
pub trait TraceSink {
    /// Whether events should be generated at all. The engine propagates
    /// this into each `TraceBuf` so emission sites can skip event
    /// construction entirely.
    fn is_recording(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: &TraceEvent) {}

    /// Record a run of events, in order. The engine hands events over this
    /// way, one node-ordered slice at a time.
    fn record_all(&mut self, evs: &[TraceEvent]) {
        for ev in evs {
            self.record(ev);
        }
    }

    fn sample_cycle(&mut self, _s: &CycleSample<'_>) {}

    /// Recover the concrete [`RecordingSink`] behind a `dyn TraceSink`
    /// without dragging `Any` through the simulator. `None` for sinks that
    /// keep no recoverable state (e.g. [`NullSink`]).
    fn as_recording(&self) -> Option<&RecordingSink> {
        None
    }

    fn as_recording_mut(&mut self) -> Option<&mut RecordingSink> {
        None
    }

    /// Owned variant of [`TraceSink::as_recording`], for recovering the
    /// recording after detaching the sink from a network.
    fn into_recording(self: Box<Self>) -> Option<RecordingSink> {
        None
    }
}

/// The zero-cost default: nothing is recorded, `is_recording` is false.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Records everything: ring-buffered events, strided time series and the
/// per-flit lifetime population.
#[derive(Debug)]
pub struct RecordingSink {
    pub recorder: RingRecorder,
    pub series: SeriesSet,
    pub lifetimes: FlitLifetimes,
}

impl RecordingSink {
    /// `event_capacity` of zero keeps every event; `sample_stride` of one
    /// samples every cycle.
    pub fn new(event_capacity: usize, sample_stride: u64) -> Self {
        RecordingSink {
            recorder: RingRecorder::new(event_capacity),
            series: SeriesSet::new(sample_stride),
            lifetimes: FlitLifetimes::new(),
        }
    }
}

impl TraceSink for RecordingSink {
    fn is_recording(&self) -> bool {
        true
    }

    fn record(&mut self, ev: &TraceEvent) {
        self.record_all(std::slice::from_ref(ev));
    }

    fn record_all(&mut self, evs: &[TraceEvent]) {
        for ev in evs {
            self.lifetimes.observe(ev);
        }
        self.recorder.extend_from_slice(evs);
    }

    fn sample_cycle(&mut self, s: &CycleSample<'_>) {
        self.series.observe(s);
    }

    fn as_recording(&self) -> Option<&RecordingSink> {
        Some(self)
    }

    fn as_recording_mut(&mut self) -> Option<&mut RecordingSink> {
        Some(self)
    }

    fn into_recording(self: Box<Self>) -> Option<RecordingSink> {
        Some(*self)
    }
}

/// Per-step staging buffer for router-emitted events.
///
/// Lives inside the simulator's `StepCtx` so router models can emit events
/// without holding a reference to the sink (which the engine owns). The
/// engine drains it into the sink after each router step.
#[derive(Debug, Default)]
pub struct TraceBuf {
    enabled: bool,
    pub events: Vec<TraceEvent>,
}

impl TraceBuf {
    pub fn new(enabled: bool) -> Self {
        TraceBuf {
            enabled,
            events: Vec::new(),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Stage an event. `make` only runs when tracing is enabled, so the
    /// disabled path costs one predictable branch.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, make: F) {
        if self.enabled {
            self.events.push(make());
        }
    }

    /// Move all staged events into `sink`, preserving order.
    pub fn drain_into(&mut self, sink: &mut dyn TraceSink) {
        sink.record_all(&self.events);
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{NodeId, PacketId};

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::Inject {
            cycle,
            node: NodeId(1),
            packet: PacketId(cycle),
            flit_index: 0,
        }
    }

    #[test]
    fn disabled_buf_never_runs_the_closure() {
        let mut buf = TraceBuf::default();
        let mut ran = false;
        buf.emit(|| {
            ran = true;
            ev(0)
        });
        assert!(!ran);
        assert!(buf.events.is_empty());
    }

    #[test]
    fn enabled_buf_drains_into_sink_in_order() {
        let mut buf = TraceBuf::new(true);
        buf.emit(|| ev(1));
        buf.emit(|| ev(2));
        let mut sink = RecordingSink::new(0, 1);
        buf.drain_into(&mut sink);
        assert!(buf.events.is_empty());
        let cycles: Vec<u64> = sink.recorder.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![1, 2]);
        assert_eq!(sink.lifetimes.injected(), 2);
    }

    #[test]
    fn null_sink_reports_not_recording() {
        assert!(!NullSink.is_recording());
        let mut sink = NullSink;
        sink.record(&ev(3));
        sink.sample_cycle(&CycleSample {
            cycle: 0,
            in_flight: 0,
            backlog: 0,
            link_traversals: 0,
            per_router_occupancy: &[],
        });
    }
}
