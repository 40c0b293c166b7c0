//! Packet-trace recording and replay.
//!
//! Any [`TrafficModel`] can be captured into a [`Trace`] (a sorted list of
//! packet descriptors) and replayed open-loop later. This is how we persist
//! workloads for regression tests and how a user can feed externally
//! produced traces (e.g. from a real full-system simulator) into the
//! simulator.

use crate::generator::TrafficModel;
use noc_core::flit::PacketDesc;
use noc_core::types::Cycle;
use serde::{Deserialize, Serialize};

/// A recorded traffic trace: packets sorted by creation cycle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub label: String,
    pub packets: Vec<PacketDesc>,
}

impl Trace {
    /// Capture the first `cycles` cycles of a model's open-loop output.
    /// (Closed-loop models can be captured too, but without deliveries they
    /// only show their MSHR-limited prefix.)
    pub fn capture<M: TrafficModel>(model: &mut M, cycles: Cycle) -> Trace {
        let mut packets = Vec::new();
        for c in 0..cycles {
            packets.extend(model.poll(c));
        }
        Trace {
            label: model.label(),
            packets,
        }
    }

    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Verify creation cycles are non-decreasing (required for replay).
    pub fn is_sorted(&self) -> bool {
        self.packets
            .windows(2)
            .all(|w| w[0].created <= w[1].created)
    }
}

/// Open-loop replay of a [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Trace,
    next: usize,
    /// Whether the trace's packet ids strictly ascend.
    ascending: bool,
}

impl TraceReplay {
    pub fn new(trace: Trace) -> TraceReplay {
        assert!(trace.is_sorted(), "trace must be sorted by creation cycle");
        let ascending = trace.packets.windows(2).all(|w| w[0].id < w[1].id);
        TraceReplay {
            trace,
            next: 0,
            ascending,
        }
    }

    /// Packets not yet replayed.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.next
    }
}

impl TrafficModel for TraceReplay {
    fn poll(&mut self, cycle: Cycle) -> Vec<PacketDesc> {
        let mut out = Vec::new();
        while self.next < self.trace.packets.len() && self.trace.packets[self.next].created <= cycle
        {
            let mut p = self.trace.packets[self.next];
            // Late replay (engine started past the stamp) re-stamps at the
            // current cycle so latency accounting stays meaningful.
            p.created = p.created.max(cycle.min(p.created));
            out.push(p);
            self.next += 1;
        }
        out
    }

    fn finished(&self) -> bool {
        self.next == self.trace.packets.len()
    }

    fn lossless(&self) -> bool {
        true // replays are finite; closed-loop runs count on full delivery
    }

    fn ascending_ids(&self) -> bool {
        self.ascending
    }

    fn label(&self) -> String {
        format!("replay:{}", self.trace.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticTraffic;
    use crate::patterns::Pattern;
    use noc_topology::Mesh;

    fn captured() -> Trace {
        let mut m = SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), 0.3, 1, 9);
        Trace::capture(&mut m, 50)
    }

    #[test]
    fn capture_is_sorted_and_nonempty() {
        let t = captured();
        assert!(!t.is_empty());
        assert!(t.is_sorted());
        assert!(t.label.contains("UR"));
    }

    #[test]
    fn replay_reproduces_capture() {
        let t = captured();
        let mut r = TraceReplay::new(t.clone());
        let mut replayed = Vec::new();
        for c in 0..50 {
            replayed.extend(r.poll(c));
        }
        assert!(r.finished());
        assert_eq!(r.remaining(), 0);
        assert_eq!(replayed, t.packets);
    }

    #[test]
    fn replay_delivers_everything_even_with_gaps() {
        let t = captured();
        let n = t.len();
        let mut r = TraceReplay::new(t);
        // Poll only every 7th cycle; backlog must still drain.
        let mut total = 0;
        for c in (0..100).step_by(7) {
            total += r.poll(c).len();
        }
        assert_eq!(total, n);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = TraceReplay::new(Trace::default());
        assert!(r.finished());
    }
}
