//! The traffic-model interface and the open-loop synthetic generator.
//!
//! The engine polls the model once per cycle for newly created packets and
//! notifies it when packets are fully reassembled at their destination —
//! that callback is what closes the loop for the SPLASH-2 model and for
//! SCARAB-style retransmission bookkeeping.

use crate::patterns::{BoundPattern, Pattern};
use noc_core::flit::{FlitKind, PacketDesc, PacketId};
use noc_core::types::{Cycle, NodeId};
use noc_core::Rng;
use noc_topology::Mesh;

/// Notification that a packet was fully delivered (all flits ejected and
/// reassembled at the destination MSHR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredPacket {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    pub kind: FlitKind,
    pub created: Cycle,
    pub delivered: Cycle,
}

/// A network-wide traffic model.
///
/// `poll` is called exactly once per cycle *before* injection and returns
/// the packets created in that cycle (any number, any source nodes).
/// `on_delivered` is called once per fully reassembled packet.
pub trait TrafficModel {
    /// Packets created at `cycle`.
    fn poll(&mut self, cycle: Cycle) -> Vec<PacketDesc>;

    /// Like [`poll`](Self::poll), appending into a caller-owned buffer.
    /// The engine calls this with one scratch `Vec` reused across cycles,
    /// so models that override it (the built-in generators do) keep the
    /// steady-state injection path allocation-free. The default delegates
    /// to `poll`, so external models only need the one method.
    fn poll_into(&mut self, cycle: Cycle, out: &mut Vec<PacketDesc>) {
        out.extend(self.poll(cycle));
    }

    /// Callback when a packet completes.
    fn on_delivered(&mut self, delivered: &DeliveredPacket) {
        let _ = delivered;
    }

    /// For finite (closed-loop) workloads: true when every transaction has
    /// completed. Open-loop models never finish.
    fn finished(&self) -> bool {
        false
    }

    /// Whether the engine must never drop this model's packets at a full
    /// source queue. Open-loop Bernoulli sources tolerate source-side loss
    /// beyond the queue cap (the uninjected surplus is still *offered*
    /// load); closed-loop workloads would deadlock, so they override this.
    fn lossless(&self) -> bool {
        false
    }

    /// Whether every packet this model creates has a larger id than all
    /// it created before (one counter per model). The engine then retires
    /// delivered ids its observers no longer need, and checks the promise
    /// where it polls: a model that breaks it, or never makes it, retires
    /// nothing.
    fn ascending_ids(&self) -> bool {
        false
    }

    /// Human-readable label for reports.
    fn label(&self) -> String;
}

/// Open-loop Bernoulli injection of a synthetic pattern.
///
/// Every node flips an `injection_prob` coin each cycle ("packets are
/// injected according to the Bernoulli process based on the given network
/// load"); on success a `packet_len`-flit packet is created with the
/// pattern's destination.
#[derive(Debug, Clone)]
pub struct SyntheticTraffic {
    pattern: BoundPattern,
    injection_prob: f64,
    packet_len: u8,
    rngs: Vec<Rng>,
    next_seq: u64,
    label: String,
}

impl SyntheticTraffic {
    /// `injection_prob` is packets/node/cycle (the runner converts an
    /// offered load fraction through `SimConfig::injection_rate`).
    pub fn new(
        pattern: Pattern,
        mesh: Mesh,
        injection_prob: f64,
        packet_len: u8,
        seed: u64,
    ) -> SyntheticTraffic {
        assert!((0.0..=1.0).contains(&injection_prob));
        assert!(packet_len >= 1);
        let rngs = (0..mesh.num_nodes())
            .map(|i| Rng::stream(seed, 0x717AFF1C ^ i as u64))
            .collect();
        SyntheticTraffic {
            pattern: BoundPattern::new(pattern, mesh, seed),
            injection_prob,
            packet_len,
            rngs,
            next_seq: 0,
            label: format!("{}@{:.3}", pattern.abbrev(), injection_prob),
        }
    }

    /// The bound pattern (for tests and reports).
    pub fn pattern(&self) -> &BoundPattern {
        &self.pattern
    }
}

impl TrafficModel for SyntheticTraffic {
    fn poll(&mut self, cycle: Cycle) -> Vec<PacketDesc> {
        let mut out = Vec::new();
        self.poll_into(cycle, &mut out);
        out
    }

    fn poll_into(&mut self, cycle: Cycle, out: &mut Vec<PacketDesc>) {
        for i in 0..self.rngs.len() {
            let rng = &mut self.rngs[i];
            if !rng.gen_bool(self.injection_prob) {
                continue;
            }
            let src = NodeId(i as u16);
            if let Some(dst) = self.pattern.dest(src, rng) {
                out.push(PacketDesc {
                    id: PacketId(self.next_seq),
                    src,
                    dst,
                    len: self.packet_len,
                    created: cycle,
                    kind: FlitKind::Synthetic,
                });
                self.next_seq += 1;
            }
        }
    }

    fn ascending_ids(&self) -> bool {
        true
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn poll_rate_tracks_probability() {
        let mut t = SyntheticTraffic::new(Pattern::UniformRandom, mesh8(), 0.1, 1, 42);
        let cycles = 3000u64;
        let total: usize = (0..cycles).map(|c| t.poll(c).len()).sum();
        let rate = total as f64 / (cycles as f64 * 64.0);
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn zero_probability_generates_nothing() {
        let mut t = SyntheticTraffic::new(Pattern::UniformRandom, mesh8(), 0.0, 1, 42);
        assert!(t.poll(0).is_empty());
        assert!(!t.finished());
    }

    #[test]
    fn packet_ids_unique_and_fields_consistent() {
        let mut t = SyntheticTraffic::new(Pattern::Complement, mesh8(), 1.0, 4, 1);
        let mut ids = std::collections::HashSet::new();
        for c in 0..10 {
            for p in t.poll(c) {
                assert!(ids.insert(p.id), "duplicate id {:?}", p.id);
                assert_eq!(p.created, c);
                assert_eq!(p.len, 4);
                assert_ne!(p.src, p.dst);
                assert_eq!(p.kind, FlitKind::Synthetic);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SyntheticTraffic::new(Pattern::UniformRandom, mesh8(), 0.2, 1, 9);
        let mut b = SyntheticTraffic::new(Pattern::UniformRandom, mesh8(), 0.2, 1, 9);
        for c in 0..100 {
            assert_eq!(a.poll(c), b.poll(c));
        }
    }

    #[test]
    fn full_probability_injects_everywhere_possible() {
        let mut t = SyntheticTraffic::new(Pattern::Complement, mesh8(), 1.0, 1, 2);
        // complement has no fixed points on 64 nodes: all 64 nodes inject.
        assert_eq!(t.poll(0).len(), 64);
    }

    #[test]
    fn label_mentions_pattern() {
        let t = SyntheticTraffic::new(Pattern::Tornado, mesh8(), 0.25, 1, 2);
        assert!(t.label().contains("TOR"));
    }
}
