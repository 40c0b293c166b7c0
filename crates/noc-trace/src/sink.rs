//! Where trace data is staged and where it ends up.
//!
//! Two halves:
//!
//! * [`TraceBuf`] — a per-step staging buffer embedded in the simulator's
//!   `StepCtx`. Routers call [`TraceBuf::emit`] with a closure; when
//!   tracing is off (the default) the closure is never run, so the cost is
//!   a single branch per emission site.
//! * [`RecordingSink`] — a [`RingRecorder`], a [`SeriesSet`] and a
//!   [`FlitLifetimes`] population. The simulator attaches it to a network
//!   as one of its observers (the `impl` lives in `noc-sim`, next to the
//!   observer trait), which hands it every node's staged events and one
//!   [`CycleSample`](crate::series::CycleSample) per cycle.

use crate::event::TraceEvent;
use crate::lifetime::FlitLifetimes;
use crate::recorder::RingRecorder;
use crate::series::SeriesSet;

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

    /// Record a run of events, in order.
    pub fn record(&mut self, evs: &[TraceEvent]) {
        for ev in evs {
            self.lifetimes.observe(ev);
        }
        self.recorder.extend_from_slice(evs);
    }
}

/// Per-step staging buffer for router-emitted events.
///
/// Lives inside the simulator's `StepCtx` so router models can emit events
/// without holding a reference to the sink (which the engine owns). The
/// engine hands each node's staged events to the network's observers.
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

    /// Enable or disable staging; also clears staged events.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.events.clear();
    }

    /// Stage an event. `make` only runs when tracing is enabled, so the
    /// disabled path costs one predictable branch.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, make: F) {
        if self.enabled {
            self.events.push(make());
        }
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
    fn enabled_buf_records_in_order_and_reenable_clears() {
        let mut buf = TraceBuf::new(true);
        buf.emit(|| ev(1));
        buf.emit(|| ev(2));
        let mut sink = RecordingSink::new(0, 1);
        sink.record(&buf.events);
        let cycles: Vec<u64> = sink.recorder.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![1, 2]);
        assert_eq!(sink.lifetimes.injected(), 2);
        buf.set_enabled(true);
        assert!(buf.events.is_empty(), "re-enable clears staged events");
    }
}
