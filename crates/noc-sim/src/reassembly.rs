//! Packet reassembly at the ejection port.
//!
//! The paper's designs can deliver a packet's flits out of order ("the
//! re-assembly of the flits can be accomplished by the cache controller
//! that contains a Miss Status Holding Register"). [`Reassembler`] models
//! that MSHR: it counts ejected flits per packet (rejecting duplicates,
//! which would indicate a router bug) and reports completion when the last
//! flit lands.

use noc_core::config::MAX_PACKET_LEN;
use noc_core::flit::{Flit, FlitKind, PacketId};
use noc_core::types::{Cycle, NodeId};
use std::collections::HashMap;

/// An in-progress packet at some destination.
#[derive(Debug, Clone)]
struct Entry {
    src: NodeId,
    dst: NodeId,
    kind: FlitKind,
    created: Cycle,
    len: u8,
    /// Bitmask of flit indices received (packets are at most
    /// `MAX_PACKET_LEN` = 64 flits, which `SimConfig::validate` enforces).
    received: u64,
    count: u8,
}

/// A fully reassembled packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedPacket {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    pub kind: FlitKind,
    pub created: Cycle,
    pub completed: Cycle,
}

/// Network-wide MSHR-style reassembly table.
#[derive(Debug, Default)]
pub struct Reassembler {
    pending: HashMap<PacketId, Entry>,
    duplicates: u64,
}

impl Reassembler {
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Accept one ejected flit; returns the completed packet when this was
    /// the last missing flit.
    ///
    /// # Panics
    /// Panics (debug) if a duplicate flit arrives or flit metadata is
    /// inconsistent across a packet — both indicate router bugs. In release
    /// builds duplicates are counted and dropped.
    pub fn accept(&mut self, flit: &Flit, now: Cycle) -> Option<CompletedPacket> {
        assert!(
            flit.packet_len as usize <= MAX_PACKET_LEN,
            "packet too long for bitmask"
        );
        // Single-flit packets (request/ACK traffic — the common case at the
        // paper's default packet length) complete immediately and never
        // touch the table; this keeps the steady-state ejection path free
        // of hash-map traffic.
        if flit.packet_len == 1 {
            debug_assert_eq!(flit.flit_index, 0);
            return Some(CompletedPacket {
                id: flit.packet,
                src: flit.src,
                dst: flit.dst,
                kind: flit.kind,
                created: flit.created,
                completed: now,
            });
        }
        let e = self.pending.entry(flit.packet).or_insert(Entry {
            src: flit.src,
            dst: flit.dst,
            kind: flit.kind,
            created: flit.created,
            len: flit.packet_len,
            received: 0,
            count: 0,
        });
        debug_assert_eq!(e.src, flit.src, "packet {:?} src mismatch", flit.packet);
        debug_assert_eq!(e.len, flit.packet_len);
        let bit = 1u64 << flit.flit_index;
        if e.received & bit != 0 {
            debug_assert!(
                false,
                "duplicate flit {:?}/{}",
                flit.packet, flit.flit_index
            );
            self.duplicates += 1;
            return None;
        }
        e.received |= bit;
        e.count += 1;
        if e.count == e.len {
            let e = self.pending.remove(&flit.packet).expect("entry exists");
            Some(CompletedPacket {
                id: flit.packet,
                src: e.src,
                dst: e.dst,
                kind: e.kind,
                created: e.created,
                completed: now,
            })
        } else {
            None
        }
    }

    /// Packets still missing flits.
    pub fn pending_packets(&self) -> usize {
        self.pending.len()
    }

    /// Duplicate flits observed (should stay 0).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Remove every trace of a packet (SCARAB drops whole packets at once
    /// in our flit-level model, but a partially ejected packet that gets
    /// dropped elsewhere must be forgotten before its retransmission).
    pub fn forget(&mut self, id: PacketId) {
        self.pending.remove(&id);
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(idx: u8, len: u8) -> Flit {
        Flit::new(
            PacketId(7),
            idx,
            len,
            NodeId(1),
            NodeId(2),
            100,
            FlitKind::Data,
        )
    }

    #[test]
    fn single_flit_completes_immediately() {
        let mut r = Reassembler::new();
        let f = Flit::synthetic(PacketId(3), NodeId(0), NodeId(5), 10);
        let done = r.accept(&f, 42).expect("completes");
        assert_eq!(done.id, PacketId(3));
        assert_eq!(done.created, 10);
        assert_eq!(done.completed, 42);
        assert!(r.is_empty());
    }

    #[test]
    fn multi_flit_requires_all() {
        let mut r = Reassembler::new();
        assert!(r.accept(&flit(0, 4), 10).is_none());
        assert!(r.accept(&flit(2, 4), 11).is_none());
        assert_eq!(r.pending_packets(), 1);
        assert!(r.accept(&flit(3, 4), 12).is_none());
        let done = r.accept(&flit(1, 4), 13).expect("completes");
        assert_eq!(done.completed, 13);
        assert!(r.is_empty());
    }

    #[test]
    fn out_of_order_is_fine() {
        let mut r = Reassembler::new();
        for i in [3u8, 0, 2, 1] {
            let res = r.accept(&flit(i, 4), 20 + i as u64);
            assert_eq!(res.is_some(), i == 1);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "duplicate flit"))]
    fn duplicate_flit_detected() {
        let mut r = Reassembler::new();
        let _ = r.accept(&flit(0, 4), 1);
        let _ = r.accept(&flit(0, 4), 2);
        // Release builds count instead of panicking.
        assert_eq!(r.duplicates(), 1);
        assert_eq!(r.pending_packets(), 1);
    }

    #[test]
    fn fully_reversed_arrival_completes_with_head_last() {
        // Tail-first delivery: the head flit (index 0) is the last missing
        // piece, and completion metadata still comes from the packet, not
        // from arrival order.
        let mut r = Reassembler::new();
        for i in [3u8, 2, 1] {
            assert!(r.accept(&flit(i, 4), 30).is_none());
        }
        let done = r.accept(&flit(0, 4), 31).expect("head completes");
        assert_eq!(done.id, PacketId(7));
        assert_eq!(done.src, NodeId(1));
        assert_eq!(done.dst, NodeId(2));
        assert_eq!(done.created, 100);
        assert_eq!(done.completed, 31);
    }

    #[test]
    fn interleaved_packets_from_distinct_sources_stay_separate() {
        // One ejection port sees two in-flight packets from different
        // sources with their flits interleaved; each must reassemble
        // against its own entry and complete independently.
        let mut r = Reassembler::new();
        let a = |idx| {
            Flit::new(
                PacketId(10),
                idx,
                3,
                NodeId(4),
                NodeId(2),
                50,
                FlitKind::Data,
            )
        };
        let b = |idx| {
            Flit::new(
                PacketId(11),
                idx,
                2,
                NodeId(9),
                NodeId(2),
                55,
                FlitKind::Data,
            )
        };
        assert!(r.accept(&a(0), 60).is_none());
        assert!(r.accept(&b(1), 61).is_none());
        assert_eq!(r.pending_packets(), 2);
        assert!(r.accept(&a(2), 62).is_none());
        let done_b = r.accept(&b(0), 63).expect("b completes first");
        assert_eq!(done_b.id, PacketId(11));
        assert_eq!(done_b.src, NodeId(9));
        assert_eq!(done_b.created, 55);
        assert_eq!(r.pending_packets(), 1);
        let done_a = r.accept(&a(1), 64).expect("a completes");
        assert_eq!(done_a.id, PacketId(10));
        assert_eq!(done_a.src, NodeId(4));
        assert!(r.is_empty());
        assert_eq!(r.duplicates(), 0);
    }

    #[test]
    fn consecutive_single_flit_packets_never_pend() {
        // Request/forward traffic is single-flit: each accept completes
        // immediately and the table never grows.
        let mut r = Reassembler::new();
        for p in 0..10u64 {
            let f = Flit::new(
                PacketId(p),
                0,
                1,
                NodeId(p as u16 % 4),
                NodeId(2),
                p,
                FlitKind::Request,
            );
            let done = r.accept(&f, p + 100).expect("single flit completes");
            assert_eq!(done.id, PacketId(p));
            assert_eq!(done.kind, FlitKind::Request);
            assert_eq!(r.pending_packets(), 0);
        }
    }

    #[test]
    fn longest_supported_packet_uses_the_full_bitmask() {
        // 64 flits is the bitmask's capacity; index 63 must not overflow
        // and the packet must complete only when all 64 landed.
        let mut r = Reassembler::new();
        let f = |idx| {
            Flit::new(
                PacketId(1),
                idx,
                64,
                NodeId(0),
                NodeId(3),
                0,
                FlitKind::Data,
            )
        };
        // Even indices descending, then odd ascending: 63 first, 0 late.
        let mut order: Vec<u8> = (0..64).rev().filter(|i| i % 2 == 1).collect();
        order.extend((0..64).filter(|i| i % 2 == 0));
        let last = order.pop().unwrap();
        for idx in order {
            assert!(r.accept(&f(idx), 5).is_none(), "premature at {idx}");
        }
        assert!(r.accept(&f(last), 6).is_some());
        assert!(r.is_empty());
    }

    #[test]
    fn forget_clears_partial_packet() {
        let mut r = Reassembler::new();
        let _ = r.accept(&flit(0, 4), 1);
        r.forget(PacketId(7));
        assert!(r.is_empty());
        // Retransmission can then complete normally.
        for i in [0u8, 1, 2] {
            assert!(r.accept(&flit(i, 4), 5).is_none());
        }
        assert!(r.accept(&flit(3, 4), 9).is_some());
    }
}
