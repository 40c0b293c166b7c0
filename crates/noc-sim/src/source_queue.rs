//! The injection queue of one node: packets wait as ranges, not as flits.
//!
//! In the paper a packet sits at the PE and becomes flits only as it
//! enters the network, and in a saturated deflection or drop network the
//! source queue is where the whole backlog lives. So a queued packet costs
//! one flat [`PacketRange`] (24 bytes, however many flits it has) and a
//! [`Flit`] is built only when it reaches the front and a router is about
//! to be offered it — by [`SourceQueue::head_mut`], i.e. in the tile that
//! owns the node. That one built flit, the head, is the only copy there
//! is: the source NI sequences and seals it in place.
//!
//! Flits that have already existed — SCARAB/ARQ retransmissions and the
//! heads they displaced — cannot go back into a range (they carry a
//! sequence number, a retransmission count), so they wait by value in a
//! small deque between the head and the ranges. Queue order is therefore
//! always: head, requeued flits front to back, then the unbuilt flits of
//! each range in arrival order — exactly the order a plain deque of flits
//! with `push_back`/`push_front` would hold.

use noc_core::flit::{Flit, FlitKind, PacketDesc, PacketId};
use noc_core::types::{Cycle, NodeId};
use std::collections::VecDeque;

/// The flits `next..end` of one queued packet, not built yet. `end` is
/// short of `len` when the queue cap cut the packet at the source.
#[derive(Debug, Clone, Copy)]
pub struct PacketRange {
    packet: PacketId,
    created: Cycle,
    src: NodeId,
    dst: NodeId,
    len: u8,
    kind: FlitKind,
    next: u8,
    end: u8,
}

/// One node's injection queue (source side of the PE).
#[derive(Debug)]
pub struct SourceQueue {
    /// The flit at the front, once built.
    head: Option<Flit>,
    /// Flits put back by [`requeue_front`](Self::requeue_front), behind
    /// the head.
    requeued: VecDeque<Flit>,
    packets: VecDeque<PacketRange>,
    /// Queued flits: the head, the requeued ones and every range's rest.
    len: u32,
}

impl SourceQueue {
    /// An empty queue with room for `packets` ranges reserved. Reserving
    /// the cap of an open-loop source up front means fresh traffic never
    /// allocates mid-run (a saturated queue fills the reservation anyway);
    /// lossless traffic past it and requeued flits grow their storage on
    /// demand and keep it.
    pub fn new(packets: usize) -> SourceQueue {
        SourceQueue {
            head: None,
            requeued: VecDeque::new(),
            packets: VecDeque::with_capacity(packets),
            len: 0,
        }
    }

    /// Flits waiting here, built or not.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest packet id waiting here. Ranges queue in arrival order,
    /// so with ascending packet ids the front range holds their smallest.
    pub fn oldest_packet(&self) -> Option<u64> {
        let built = self.head.iter().chain(&self.requeued).map(|f| f.packet.0);
        let unbuilt = self.packets.front().map(|r| r.packet.0);
        built.chain(unbuilt).min()
    }

    /// Queue the first `room` flits of `desc` (all of them when `room`
    /// allows) behind everything already waiting, and return how many did
    /// not fit. No flit is built.
    pub fn push(&mut self, desc: &PacketDesc, room: usize) -> usize {
        let end = room.min(desc.len as usize) as u8;
        if end > 0 {
            self.packets.push_back(PacketRange {
                packet: desc.id,
                created: desc.created,
                src: desc.src,
                dst: desc.dst,
                len: desc.len,
                kind: desc.kind,
                next: 0,
                end,
            });
            self.len += end as u32;
        }
        (desc.len - end) as usize
    }

    /// Put `flit` at the very front (retransmissions have priority over
    /// fresh traffic); a head it displaces waits right behind it.
    pub fn requeue_front(&mut self, flit: Flit) {
        if let Some(displaced) = self.head.replace(flit) {
            self.requeued.push_front(displaced);
        }
        self.len += 1;
    }

    /// The flit at the front of the queue, built now if it was still part
    /// of a packet range.
    #[inline]
    pub fn head_mut(&mut self) -> Option<&mut Flit> {
        if self.head.is_none() && self.len > 0 {
            self.head = self.requeued.pop_front().or_else(|| {
                let r = self.packets.front_mut()?;
                let flit = Flit::new(r.packet, r.next, r.len, r.src, r.dst, r.created, r.kind);
                r.next += 1;
                if r.next == r.end {
                    self.packets.pop_front();
                }
                Some(flit)
            });
        }
        self.head.as_mut()
    }

    /// Take the flit at the front off the queue.
    pub fn pop(&mut self) -> Option<Flit> {
        self.head_mut()?;
        self.len -= 1;
        self.head.take()
    }
}
