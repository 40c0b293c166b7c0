//! Per-flit lifetime reconstruction and **exact** latency percentiles.
//!
//! [`crate::sink::RecordingSink`] feeds every event through
//! [`FlitLifetimes::observe`], which pairs each `Inject` with the matching
//! `Eject` or `Drop` and hands back the lifetime it closed. What is kept
//! is proportional to what is in flight, not to what was ever delivered:
//! the open flits, an exact latency table (latency → count) and the
//! [`SLOWEST_KEPT`] slowest lifetimes. Unlike `noc_core::LatencyStats` (a
//! histogram with bounded relative error), the percentiles here are exact
//! nearest-rank values of the full population — the reference the
//! histogram's accuracy is tested against.

use crate::event::TraceEvent;
use noc_core::hash::FxHashMap;
use noc_core::Cycle;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// How many of the slowest ejected lifetimes [`FlitLifetimes`] keeps:
/// [`FlitLifetimes::top_slowest`] answers any `n` up to this.
pub const SLOWEST_KEPT: usize = 64;

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

    /// Slowest first: latency descending, then packet, then flit.
    fn slowness(&self, other: &FlitLifetime) -> Ordering {
        other
            .reported_latency
            .cmp(&self.reported_latency)
            .then(self.packet.cmp(&other.packet))
            .then(self.flit_index.cmp(&other.flit_index))
    }
}

/// Pairs inject events with their terminal event and folds every ejected
/// lifetime into an exact latency table and the slowest few.
#[derive(Debug)]
pub struct FlitLifetimes {
    /// Flits injected but not yet ejected/dropped: (src node, inject cycle).
    open: FxHashMap<(u64, u16), (u16, Cycle)>,
    /// `(latency, ejected lifetimes with it)`, ascending by latency.
    latencies: Vec<(u64, u64)>,
    /// The slowest ejected lifetimes, slowest first, at most
    /// [`SLOWEST_KEPT`]; equal keys stay in completion order.
    slowest: Vec<FlitLifetime>,
    injected: u64,
    ejected: u64,
    dropped: u64,
}

impl Default for FlitLifetimes {
    fn default() -> Self {
        FlitLifetimes {
            open: FxHashMap::default(),
            latencies: Vec::new(),
            slowest: Vec::with_capacity(SLOWEST_KEPT),
            injected: 0,
            ejected: 0,
            dropped: 0,
        }
    }
}

impl FlitLifetimes {
    pub fn new() -> Self {
        FlitLifetimes::default()
    }

    /// Pair one event. Returns the lifetime it closed, if any (an `Eject`
    /// or `Drop` whose `Inject` was seen); an ejected one is folded into
    /// the latency table and the slowest list first. The record itself is
    /// not kept.
    pub fn observe(&mut self, ev: &TraceEvent) -> Option<FlitLifetime> {
        let (cycle, node, packet, flit_index, latency) = match *ev {
            TraceEvent::Inject {
                cycle,
                node,
                packet,
                flit_index,
            } => {
                self.injected += 1;
                // A retransmitted flit reopens its key; the new attempt
                // supersedes the old one.
                self.open.insert((packet.0, flit_index), (node.0, cycle));
                return None;
            }
            TraceEvent::Eject {
                cycle,
                node,
                packet,
                flit_index,
                latency,
            } => {
                self.ejected += 1;
                (cycle, node, packet, flit_index, Some(latency))
            }
            TraceEvent::Drop {
                cycle,
                node,
                packet,
                flit_index,
            } => {
                self.dropped += 1;
                (cycle, node, packet, flit_index, None)
            }
            _ => return None,
        };
        let (src, injected) = self.open.remove(&(packet.0, flit_index))?;
        let lt = FlitLifetime {
            packet: packet.0,
            flit_index,
            src,
            end_node: node.0,
            injected,
            finished: cycle,
            dropped: latency.is_none(),
            reported_latency: latency.unwrap_or(0),
        };
        if latency.is_some() {
            self.fold(&lt);
        }
        Some(lt)
    }

    /// Count an ejected lifetime in the latency table and keep it if it is
    /// among the [`SLOWEST_KEPT`] slowest.
    fn fold(&mut self, lt: &FlitLifetime) {
        let lat = lt.reported_latency;
        match self.latencies.binary_search_by_key(&lat, |&(l, _)| l) {
            Ok(i) => self.latencies[i].1 += 1,
            Err(i) => self.latencies.insert(i, (lat, 1)),
        }
        // Most lifetimes are no slower than the fastest one kept.
        if self.slowest.len() == SLOWEST_KEPT
            && self.slowest[SLOWEST_KEPT - 1].slowness(lt) != Ordering::Greater
        {
            return;
        }
        // After every kept lifetime that is at least as slow, so equal
        // keys keep completion order (as a stable sort would).
        let at = self
            .slowest
            .partition_point(|k| k.slowness(lt) != Ordering::Greater);
        self.slowest.truncate(SLOWEST_KEPT - 1);
        self.slowest.insert(at, lt.clone());
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

    /// Ejected lifetimes folded so far (each `Eject` that closed an
    /// observed `Inject`).
    fn population(&self) -> u64 {
        self.latencies.iter().map(|&(_, n)| n).sum()
    }

    /// Packet latencies of successfully ejected flits, sorted ascending
    /// (the table, expanded).
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.population() as usize);
        for &(lat, n) in &self.latencies {
            v.extend(std::iter::repeat_n(lat, n as usize));
        }
        v
    }

    /// Exact nearest-rank percentile over ejected-flit latencies.
    /// `p` in [0, 100]. Returns `None` when nothing has been ejected.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let rank = nearest_rank(self.population() as usize, p)?;
        let mut seen = 0u64;
        self.latencies.iter().find_map(|&(lat, n)| {
            seen += n;
            (seen >= rank as u64).then_some(lat)
        })
    }

    /// The `n` slowest ejected flits, slowest first (ties: packet, then
    /// flit index, then completion order).
    ///
    /// # Panics
    /// If `n` exceeds [`SLOWEST_KEPT`], the most that is kept.
    pub fn top_slowest(&self, n: usize) -> Vec<&FlitLifetime> {
        assert!(
            n <= SLOWEST_KEPT,
            "top_slowest({n}): only the {SLOWEST_KEPT} slowest lifetimes are kept"
        );
        self.slowest.iter().take(n).collect()
    }

    pub fn summary(&self) -> LifetimeSummary {
        let count = self.population();
        let sum: u64 = self.latencies.iter().map(|&(lat, n)| lat * n).sum();
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        LifetimeSummary {
            injected: self.injected,
            ejected: self.ejected,
            dropped: self.dropped,
            in_flight: self.open.len() as u64,
            mean_latency: mean,
            p50: self.percentile(50.0).unwrap_or(0),
            p90: self.percentile(90.0).unwrap_or(0),
            p99: self.percentile(99.0).unwrap_or(0),
            max_latency: self.latencies.last().map_or(0, |&(lat, _)| lat),
        }
    }
}

/// 1-based nearest rank of percentile `p` in a population of `len`.
fn nearest_rank(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    Some((((p / 100.0) * len as f64).ceil() as usize).max(1))
}

/// Exact nearest-rank percentile of an ascending-sorted slice.
pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    nearest_rank(sorted.len(), p).map(|rank| sorted[rank - 1])
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
        assert_eq!(lt.observe(&inject(1, 7, 0)), None);
        assert_eq!(lt.observe(&inject(1, 7, 1)), None);
        let ejected = lt.observe(&eject(9, 7, 0, 8)).expect("closes 7.0");
        let dropped = lt
            .observe(&TraceEvent::Drop {
                cycle: 4,
                node: NodeId(2),
                packet: PacketId(7),
                flit_index: 1,
            })
            .expect("closes 7.1");
        assert_eq!(lt.injected(), 2);
        assert_eq!(lt.ejected(), 1);
        assert_eq!(lt.dropped(), 1);
        assert_eq!(lt.still_open(), 0);
        assert!(!ejected.dropped);
        assert_eq!(ejected.network_latency(), 8);
        assert!(dropped.dropped);
        assert_eq!(dropped.end_node, 2);
        // Only the ejected lifetime joins the latency population.
        assert_eq!(lt.sorted_latencies(), vec![8]);
        // An eject with no observed inject closes nothing.
        assert_eq!(lt.observe(&eject(12, 8, 0, 3)), None);
        assert_eq!(lt.ejected(), 2);
        assert_eq!(lt.sorted_latencies(), vec![8]);
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
    fn table_answers_as_the_sorted_population_would() {
        let lats = [7u64, 3, 9, 3, 3, 12, 7, 1, 9, 9, 9, 4];
        let mut lt = FlitLifetimes::new();
        for (pkt, &lat) in lats.iter().enumerate() {
            lt.observe(&inject(0, pkt as u64, 0));
            lt.observe(&eject(lat, pkt as u64, 0, lat));
        }
        let mut sorted = lats.to_vec();
        sorted.sort_unstable();
        assert_eq!(lt.sorted_latencies(), sorted);
        for p in [0.0, 1.0, 25.0, 50.0, 66.6, 90.0, 99.0, 100.0] {
            assert_eq!(lt.percentile(p), percentile_of_sorted(&sorted, p), "p{p}");
        }
        let s = lt.summary();
        assert_eq!(s.max_latency, 12);
        assert_eq!(s.mean_latency, 76.0 / 12.0);
        assert_eq!(FlitLifetimes::new().percentile(50.0), None);
    }

    #[test]
    fn slowest_list_is_bounded_and_keeps_completion_order_on_ties() {
        let mut lt = FlitLifetimes::new();
        // Packet 0 completes twice with the same key (a duplicate
        // delivery): both copies stay, in completion order.
        for (cycle, pkt) in [(1u64, 0u64), (2, 0)] {
            lt.observe(&inject(0, pkt, 0));
            lt.observe(&eject(cycle, pkt, 0, 1_000));
        }
        for pkt in 1..200u64 {
            lt.observe(&inject(0, pkt, 0));
            lt.observe(&eject(pkt, pkt, 0, pkt % 50));
        }
        let top = lt.top_slowest(SLOWEST_KEPT);
        assert_eq!(top.len(), SLOWEST_KEPT);
        assert_eq!((top[0].finished, top[1].finished), (1, 2));
        for w in top.windows(2) {
            assert_ne!(w[0].slowness(w[1]), Ordering::Greater);
        }
        assert_eq!(top[2].reported_latency, 49);
        assert_eq!(top[2].packet, 49);
    }

    #[test]
    #[should_panic(expected = "only the 64 slowest")]
    fn asking_past_the_kept_list_panics() {
        FlitLifetimes::new().top_slowest(SLOWEST_KEPT + 1);
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
        let retx = lt
            .observe(&eject(15, 9, 0, 14))
            .expect("the retransmission");
        assert_eq!(retx.injected, 10, "the new attempt supersedes the old");
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
