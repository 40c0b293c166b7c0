//! Per-flit lifetime reconstruction and **exact** latency percentiles.
//!
//! [`crate::sink::RecordingSink`] feeds every event through
//! [`FlitLifetimes::observe`], which pairs each `Inject` with the matching
//! `Eject` or `Drop`. Unlike `noc_core::LatencyStats` (a histogram with
//! bounded relative error), the percentiles here are computed from the
//! full sorted latency population — the reference the histogram's accuracy
//! is tested against.

use crate::event::TraceEvent;
use noc_core::hash::FxHashMap;
use noc_core::Cycle;
use serde::{Deserialize, Serialize};

/// The reconstructed life of one flit, from injection to eject/drop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlitLifetime {
    pub packet: u64,
    pub flit_index: u16,
    /// Node that injected the flit.
    pub src: u16,
    /// Node where the flit finished (destination, or drop site).
    pub end_node: u16,
    pub injected: Cycle,
    pub finished: Cycle,
    pub dropped: bool,
    /// Source-to-destination packet latency reported at ejection (measured
    /// from packet creation, so it includes source queueing).
    pub reported_latency: u64,
}

impl FlitLifetime {
    /// Cycles between injection into the network and completion.
    pub fn network_latency(&self) -> u64 {
        self.finished.saturating_sub(self.injected)
    }
}

/// Pairs inject events with their terminal event and keeps the population
/// of completed lifetimes.
#[derive(Debug, Default)]
pub struct FlitLifetimes {
    /// Flits injected but not yet ejected/dropped: (src node, inject cycle).
    open: FxHashMap<(u64, u16), (u16, Cycle)>,
    /// Completed lifetimes, in completion order.
    done: Vec<FlitLifetime>,
    injected: u64,
    ejected: u64,
    dropped: u64,
}

impl FlitLifetimes {
    pub fn new() -> Self {
        FlitLifetimes::default()
    }

    pub fn observe(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Inject {
                cycle,
                node,
                packet,
                flit_index,
            } => {
                self.injected += 1;
                // A retransmitted flit reopens its key; the new attempt
                // supersedes the old one.
                self.open.insert((packet.0, *flit_index), (node.0, *cycle));
            }
            TraceEvent::Eject {
                cycle,
                node,
                packet,
                flit_index,
                latency,
            } => {
                self.ejected += 1;
                if let Some((src, injected)) = self.open.remove(&(packet.0, *flit_index)) {
                    self.done.push(FlitLifetime {
                        packet: packet.0,
                        flit_index: *flit_index,
                        src,
                        end_node: node.0,
                        injected,
                        finished: *cycle,
                        dropped: false,
                        reported_latency: *latency,
                    });
                }
            }
            TraceEvent::Drop {
                cycle,
                node,
                packet,
                flit_index,
            } => {
                self.dropped += 1;
                if let Some((src, injected)) = self.open.remove(&(packet.0, *flit_index)) {
                    self.done.push(FlitLifetime {
                        packet: packet.0,
                        flit_index: *flit_index,
                        src,
                        end_node: node.0,
                        injected,
                        finished: *cycle,
                        dropped: true,
                        reported_latency: 0,
                    });
                }
            }
            _ => {}
        }
    }

    pub fn injected(&self) -> u64 {
        self.injected
    }

    pub fn ejected(&self) -> u64 {
        self.ejected
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flits injected whose terminal event has not been seen yet.
    pub fn still_open(&self) -> usize {
        self.open.len()
    }

    /// Completed lifetimes in completion order.
    pub fn completed(&self) -> &[FlitLifetime] {
        &self.done
    }

    /// Packet latencies of successfully ejected flits, sorted ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .done
            .iter()
            .filter(|l| !l.dropped)
            .map(|l| l.reported_latency)
            .collect();
        v.sort_unstable();
        v
    }

    /// Exact nearest-rank percentile over ejected-flit latencies.
    /// `p` in [0, 100]. Returns `None` when nothing has been ejected.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        percentile_of_sorted(&self.sorted_latencies(), p)
    }

    /// The `n` slowest ejected flits, slowest first.
    pub fn top_slowest(&self, n: usize) -> Vec<&FlitLifetime> {
        let mut v: Vec<&FlitLifetime> = self.done.iter().filter(|l| !l.dropped).collect();
        v.sort_by(|a, b| {
            b.reported_latency
                .cmp(&a.reported_latency)
                .then(a.packet.cmp(&b.packet))
                .then(a.flit_index.cmp(&b.flit_index))
        });
        v.truncate(n);
        v
    }

    pub fn summary(&self) -> LifetimeSummary {
        let lat = self.sorted_latencies();
        let mean = if lat.is_empty() {
            0.0
        } else {
            lat.iter().sum::<u64>() as f64 / lat.len() as f64
        };
        LifetimeSummary {
            injected: self.injected,
            ejected: self.ejected,
            dropped: self.dropped,
            in_flight: self.open.len() as u64,
            mean_latency: mean,
            p50: percentile_of_sorted(&lat, 50.0).unwrap_or(0),
            p90: percentile_of_sorted(&lat, 90.0).unwrap_or(0),
            p99: percentile_of_sorted(&lat, 99.0).unwrap_or(0),
            max_latency: lat.last().copied().unwrap_or(0),
        }
    }
}

/// Exact nearest-rank percentile of an ascending-sorted slice.
pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Aggregate view of the lifetime population, serialized into run outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeSummary {
    pub injected: u64,
    pub ejected: u64,
    pub dropped: u64,
    pub in_flight: u64,
    pub mean_latency: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max_latency: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{NodeId, PacketId};

    fn inject(cycle: u64, pkt: u64, fi: u16) -> TraceEvent {
        TraceEvent::Inject {
            cycle,
            node: NodeId(0),
            packet: PacketId(pkt),
            flit_index: fi,
        }
    }

    fn eject(cycle: u64, pkt: u64, fi: u16, lat: u64) -> TraceEvent {
        TraceEvent::Eject {
            cycle,
            node: NodeId(5),
            packet: PacketId(pkt),
            flit_index: fi,
            latency: lat,
        }
    }

    #[test]
    fn pairs_inject_with_eject_and_drop() {
        let mut lt = FlitLifetimes::new();
        lt.observe(&inject(1, 7, 0));
        lt.observe(&inject(1, 7, 1));
        lt.observe(&eject(9, 7, 0, 8));
        lt.observe(&TraceEvent::Drop {
            cycle: 4,
            node: NodeId(2),
            packet: PacketId(7),
            flit_index: 1,
        });
        assert_eq!(lt.injected(), 2);
        assert_eq!(lt.ejected(), 1);
        assert_eq!(lt.dropped(), 1);
        assert_eq!(lt.still_open(), 0);
        let done = lt.completed();
        assert_eq!(done.len(), 2);
        assert!(!done[0].dropped);
        assert_eq!(done[0].network_latency(), 8);
        assert!(done[1].dropped);
        assert_eq!(done[1].end_node, 2);
    }

    #[test]
    fn exact_percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&sorted, 50.0), Some(50));
        assert_eq!(percentile_of_sorted(&sorted, 99.0), Some(99));
        assert_eq!(percentile_of_sorted(&sorted, 100.0), Some(100));
        assert_eq!(percentile_of_sorted(&sorted, 0.0), Some(1));
        assert_eq!(percentile_of_sorted(&[], 50.0), None);
        assert_eq!(percentile_of_sorted(&[7], 99.0), Some(7));
    }

    #[test]
    fn top_slowest_orders_and_truncates() {
        let mut lt = FlitLifetimes::new();
        for (pkt, lat) in [(1u64, 5u64), (2, 50), (3, 20), (4, 50)] {
            lt.observe(&inject(0, pkt, 0));
            lt.observe(&eject(lat, pkt, 0, lat));
        }
        let top = lt.top_slowest(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].reported_latency, 50);
        assert_eq!(top[1].reported_latency, 50);
        // Ties break on packet id for deterministic output.
        assert!(top[0].packet < top[1].packet);
        assert_eq!(top[2].reported_latency, 20);
    }

    #[test]
    fn retransmission_reopens_key() {
        let mut lt = FlitLifetimes::new();
        lt.observe(&inject(1, 9, 0));
        lt.observe(&TraceEvent::Drop {
            cycle: 3,
            node: NodeId(1),
            packet: PacketId(9),
            flit_index: 0,
        });
        lt.observe(&inject(10, 9, 0));
        lt.observe(&eject(15, 9, 0, 14));
        assert_eq!(lt.completed().len(), 2);
        assert_eq!(lt.summary().ejected, 1);
        assert_eq!(lt.summary().dropped, 1);
        assert_eq!(lt.still_open(), 0);
    }

    #[test]
    fn summary_roundtrips_through_serde() {
        let mut lt = FlitLifetimes::new();
        lt.observe(&inject(0, 1, 0));
        lt.observe(&eject(6, 1, 0, 6));
        let s = lt.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: LifetimeSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
