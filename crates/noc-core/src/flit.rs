//! Flits and packets.
//!
//! The paper switches at flit granularity and — in the DXbar and bufferless
//! designs — every flit of a packet carries full routing state ("each flit of
//! a packet has to be a head flit as it is possible to receive out-of-order
//! flits"; reassembly happens in the cache controller's MSHR). We therefore
//! give every [`Flit`] its source, destination and age, and model packets as
//! a `(PacketId, length)` pair reassembled at the ejection port.

use crate::crc::{crc16_words, mix64};
use crate::types::{Cycle, NodeId};
use serde::{Deserialize, Serialize};

/// Globally unique packet identifier (unique per simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// Message class. Single-flit requests and multi-flit data replies follow
/// the MESI-style traffic of the SPLASH-2 workload model; synthetic traffic
/// uses `Synthetic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// Synthetic-pattern traffic (Fig. 5-8, 11, 12).
    Synthetic,
    /// Coherence request / control message (1 flit).
    Request,
    /// Directory-to-owner forward of a request (1 flit, cache-to-cache
    /// transfer path in MESI with private L2s).
    Forward,
    /// Data reply carrying a cache block (64 B / 128-bit flits = 4 flits).
    Data,
}

/// The unit of switching: 128 bits of payload plus routing state.
///
/// `age` is the injection timestamp of the *packet* and implements the
/// paper's age-based arbitration (oldest flit wins). Smaller `age` = older.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Index of this flit within its packet (`0..packet_len`).
    pub flit_index: u8,
    /// Total number of flits in the packet.
    pub packet_len: u8,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle the packet was created at the source PE (basis for latency and
    /// for age-based arbitration).
    pub created: Cycle,
    /// Cycle the flit first entered the network (left the injection queue).
    pub injected: Cycle,
    /// Message class.
    pub kind: FlitKind,
    /// Link traversals so far (statistics; also detects livelock).
    pub hops: u16,
    /// Deflections suffered so far (bufferless designs; statistics).
    pub deflections: u16,
    /// Retransmissions of the owning packet so far (SCARAB; statistics).
    pub retransmits: u16,
    /// Downstream virtual channel assigned at switch traversal (buffered
    /// baselines only; 0 elsewhere).
    pub vc: u8,
    /// NI-assigned sequence number for the retransmission protocol.
    /// 0 means "unsequenced" (resilience layer disabled); real sequence
    /// numbers start at 1 and are unique per source NI. Retransmissions of
    /// the same flit reuse its sequence number.
    pub seq: u32,
    /// Stand-in for the 128-bit data payload: derived deterministically from
    /// the flit identity so end-to-end corruption detection is testable.
    pub payload: u64,
    /// CRC-16 over `(packet, flit_index, src, dst, seq, payload)`, sealed by
    /// the source NI when it sequences the flit ([`Flit::set_seq`]) and 0 —
    /// meaningless — on an unsequenced flit, which no checker looks at.
    /// Transient link faults corrupt `payload` without resealing, so
    /// [`Flit::crc_ok`] fails at the checker.
    pub crc: u16,
}

impl Flit {
    /// Create the `flit_index`-th flit of a packet: unsequenced and
    /// unsealed, as it leaves the PE. The source NI seals it
    /// ([`Flit::set_seq`]) only where a resilience layer will check it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        packet: PacketId,
        flit_index: u8,
        packet_len: u8,
        src: NodeId,
        dst: NodeId,
        created: Cycle,
        kind: FlitKind,
    ) -> Flit {
        debug_assert!(flit_index < packet_len, "flit index out of range");
        Flit {
            packet,
            flit_index,
            packet_len,
            src,
            dst,
            created,
            injected: created,
            kind,
            hops: 0,
            deflections: 0,
            retransmits: 0,
            vc: 0,
            seq: 0,
            payload: mix64(packet.0 ^ ((flit_index as u64) << 56)),
            crc: 0,
        }
    }

    /// The words covered by the payload CRC. The routing header fields enter
    /// the checksum so a stale seal is also caught, but the fault model only
    /// ever corrupts `payload` (headers are assumed protected by a separate
    /// in-router code — see `noc_core::crc`).
    #[inline]
    fn crc_words(&self) -> [u64; 4] {
        [
            self.packet.0,
            (self.flit_index as u64) | ((self.src.0 as u64) << 16) | ((self.dst.0 as u64) << 32),
            self.seq as u64,
            self.payload,
        ]
    }

    /// Recompute and store the CRC. Called whenever the NI assigns a
    /// sequence number; a fresh flit is not sealed.
    pub fn seal_crc(&mut self) {
        self.crc = crc16_words(&self.crc_words());
    }

    /// Whether the payload still matches its seal.
    #[inline]
    pub fn crc_ok(&self) -> bool {
        self.crc == crc16_words(&self.crc_words())
    }

    /// Assign an NI sequence number and reseal. `seq` must be non-zero.
    pub fn set_seq(&mut self, seq: u32) {
        debug_assert!(seq != 0, "sequence numbers start at 1");
        self.seq = seq;
        self.seal_crc();
    }

    /// Flip payload bits without resealing — models a transient soft error
    /// on a link. `mask` must be non-zero for the corruption to be real.
    pub fn corrupt_payload(&mut self, mask: u64) {
        self.payload ^= if mask == 0 { 1 } else { mask };
    }

    /// Convenience constructor for a single-flit synthetic packet.
    pub fn synthetic(packet: PacketId, src: NodeId, dst: NodeId, created: Cycle) -> Flit {
        Flit::new(packet, 0, 1, src, dst, created, FlitKind::Synthetic)
    }

    /// Age-based arbitration key: older (smaller `created`) wins; ties are
    /// broken by packet id then flit index so ordering is total and
    /// deterministic.
    #[inline]
    pub fn age_key(&self) -> (Cycle, u64, u8) {
        (self.created, self.packet.0, self.flit_index)
    }

    /// True if `self` has priority over `other` under age-based arbitration.
    #[inline]
    pub fn older_than(&self, other: &Flit) -> bool {
        self.age_key() < other.age_key()
    }

    /// Whether this is the last flit of its packet.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.flit_index + 1 == self.packet_len
    }
}

/// Descriptor of a packet to be injected (traffic-generator output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketDesc {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    pub len: u8,
    pub created: Cycle,
    pub kind: FlitKind,
}

impl PacketDesc {
    /// Expand the descriptor into its flits.
    pub fn flits(&self) -> impl Iterator<Item = Flit> + '_ {
        let d = *self;
        (0..d.len).map(move |i| Flit::new(d.id, i, d.len, d.src, d.dst, d.created, d.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(created: Cycle, pid: u64, idx: u8) -> Flit {
        Flit::new(
            PacketId(pid),
            idx,
            4,
            NodeId(0),
            NodeId(1),
            created,
            FlitKind::Data,
        )
    }

    #[test]
    fn age_ordering_prefers_older() {
        let old = flit(10, 5, 0);
        let young = flit(20, 1, 0);
        assert!(old.older_than(&young));
        assert!(!young.older_than(&old));
    }

    #[test]
    fn age_tie_broken_by_packet_then_index() {
        let a = flit(10, 1, 0);
        let b = flit(10, 2, 0);
        let c = flit(10, 2, 1);
        assert!(a.older_than(&b));
        assert!(b.older_than(&c));
        assert!(!c.older_than(&a));
    }

    #[test]
    fn tail_detection() {
        assert!(!flit(0, 0, 0).is_tail());
        assert!(flit(0, 0, 3).is_tail());
    }

    #[test]
    fn synthetic_is_single_flit() {
        let f = Flit::synthetic(PacketId(9), NodeId(3), NodeId(4), 77);
        assert_eq!(f.packet_len, 1);
        assert!(f.is_tail());
        assert_eq!(f.kind, FlitKind::Synthetic);
        assert_eq!(f.injected, 77);
    }

    #[test]
    fn fresh_flit_is_unsequenced_and_unsealed() {
        let f = Flit::synthetic(PacketId(1), NodeId(0), NodeId(5), 3);
        assert_eq!(f.seq, 0);
        assert_eq!(f.crc, 0);
        assert!(!f.crc_ok(), "nothing sealed this flit yet");
    }

    #[test]
    fn set_seq_seals_and_corruption_breaks_the_seal() {
        let mut f = Flit::synthetic(PacketId(1), NodeId(0), NodeId(5), 3);
        f.set_seq(17);
        assert_eq!(f.seq, 17);
        assert!(f.crc_ok());
        f.corrupt_payload(1 << 40);
        assert!(!f.crc_ok());
    }

    #[test]
    fn corruption_breaks_crc_and_reseal_restores() {
        let mut f = Flit::synthetic(PacketId(2), NodeId(1), NodeId(6), 0);
        f.set_seq(1);
        f.corrupt_payload(0x8000_0001);
        assert!(!f.crc_ok());
        f.seal_crc();
        assert!(f.crc_ok());
    }

    #[test]
    fn corrupt_with_zero_mask_still_corrupts() {
        let mut f = Flit::synthetic(PacketId(3), NodeId(0), NodeId(1), 0);
        f.set_seq(1);
        f.corrupt_payload(0);
        assert!(!f.crc_ok());
    }

    #[test]
    fn stale_seq_seal_is_detected() {
        let mut f = Flit::synthetic(PacketId(5), NodeId(0), NodeId(1), 0);
        f.set_seq(1);
        f.seq = 2; // bypass set_seq: seal now stale
        assert!(!f.crc_ok());
    }

    #[test]
    fn payload_is_deterministic_per_flit_identity() {
        let a = Flit::synthetic(PacketId(7), NodeId(0), NodeId(1), 0);
        let b = Flit::synthetic(PacketId(7), NodeId(0), NodeId(1), 0);
        let c = Flit::synthetic(PacketId(8), NodeId(0), NodeId(1), 0);
        assert_eq!(a.payload, b.payload);
        assert_ne!(a.payload, c.payload);
    }

    #[test]
    fn packet_desc_expands_to_len_flits() {
        let d = PacketDesc {
            id: PacketId(3),
            src: NodeId(0),
            dst: NodeId(63),
            len: 5,
            created: 42,
            kind: FlitKind::Data,
        };
        let flits: Vec<Flit> = d.flits().collect();
        assert_eq!(flits.len(), 5);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.flit_index as usize, i);
            assert_eq!(f.packet_len, 5);
            assert_eq!(f.created, 42);
        }
        assert!(flits[4].is_tail());
    }
}
