//! Bounded event storage: a ring buffer that keeps the newest events,
//! packed 16 bytes to an event.

use crate::event::{TraceEvent, TraceEventKind};
use noc_core::{Cycle, Direction, NodeId, PacketId};
use std::collections::VecDeque;

/// Events per storage chunk of a [`RingRecorder`].
pub const CHUNK: usize = 4096;

/// One stored event: half the size of a [`TraceEvent`]. The cycle is an
/// offset from its chunk's base cycle, and the one variant-specific field
/// shares a single `u32`. An event with a field too wide for this record
/// (a cycle behind the base or 2³² past it, a packet id or a wait, latency
/// or epoch of 2³² or more, a flit index over 255) is stored verbatim in
/// its chunk's overflow list instead, and its record is only an escape tag
/// and the list index — so every event decodes to exactly what was pushed.
#[derive(Debug, Clone, Copy)]
pub struct PackedEvent {
    /// Cycle minus the chunk's base cycle.
    offset: u32,
    node: u16,
    /// [`TraceEventKind`] in declaration order, or [`ESCAPED`].
    kind: u8,
    flit_index: u8,
    /// Packet id; for an escaped event, its index in the overflow list.
    packet: u32,
    /// Direction (Hop), wanted | got << 8 (Deflect), occupancy, wait,
    /// epoch or latency; zero for the kinds without one.
    arg: u32,
}

const _: () = assert!(std::mem::size_of::<PackedEvent>() == 16);

/// The `kind` of a record whose event lives in the overflow list.
const ESCAPED: u8 = u8::MAX;

impl PackedEvent {
    /// `ev` as a record against `base`, or `None` if a field does not fit.
    fn pack(ev: &TraceEvent, base: Cycle) -> Option<PackedEvent> {
        let (packet, flit_index, arg) = match *ev {
            TraceEvent::Inject {
                packet, flit_index, ..
            }
            | TraceEvent::DivertSecondary {
                packet, flit_index, ..
            }
            | TraceEvent::Drop {
                packet, flit_index, ..
            } => (packet, flit_index, 0),
            TraceEvent::Hop {
                packet,
                flit_index,
                dir,
                ..
            } => (packet, flit_index, dir as u32),
            TraceEvent::BufferEnter {
                packet,
                flit_index,
                occupancy,
                ..
            } => (packet, flit_index, occupancy),
            TraceEvent::BufferExit {
                packet,
                flit_index,
                waited,
                ..
            } => (packet, flit_index, u32::try_from(waited).ok()?),
            TraceEvent::Deflect {
                packet,
                flit_index,
                wanted,
                got,
                ..
            } => (packet, flit_index, wanted as u32 | (got as u32) << 8),
            TraceEvent::FairnessFlip { epoch, .. } => (PacketId(0), 0, u32::try_from(epoch).ok()?),
            TraceEvent::Eject {
                packet,
                flit_index,
                latency,
                ..
            } => (packet, flit_index, u32::try_from(latency).ok()?),
        };
        Some(PackedEvent {
            offset: u32::try_from(ev.cycle().checked_sub(base)?).ok()?,
            node: ev.node().0,
            kind: ev.kind() as u8,
            flit_index: u8::try_from(flit_index).ok()?,
            packet: u32::try_from(packet.0).ok()?,
            arg,
        })
    }

    /// The event this (non-escaped) record packs against `base`.
    fn unpack(self, base: Cycle) -> TraceEvent {
        let cycle = base + self.offset as Cycle;
        let node = NodeId(self.node);
        let packet = PacketId(self.packet as u64);
        let flit_index = self.flit_index as u16;
        let dir = |bits: u32| Direction::from_index((bits & 0xff) as usize);
        match TraceEventKind::ALL[self.kind as usize] {
            TraceEventKind::Inject => TraceEvent::Inject {
                cycle,
                node,
                packet,
                flit_index,
            },
            TraceEventKind::Hop => TraceEvent::Hop {
                cycle,
                node,
                packet,
                flit_index,
                dir: dir(self.arg),
            },
            TraceEventKind::BufferEnter => TraceEvent::BufferEnter {
                cycle,
                node,
                packet,
                flit_index,
                occupancy: self.arg,
            },
            TraceEventKind::BufferExit => TraceEvent::BufferExit {
                cycle,
                node,
                packet,
                flit_index,
                waited: self.arg as u64,
            },
            TraceEventKind::Deflect => TraceEvent::Deflect {
                cycle,
                node,
                packet,
                flit_index,
                wanted: dir(self.arg),
                got: dir(self.arg >> 8),
            },
            TraceEventKind::DivertSecondary => TraceEvent::DivertSecondary {
                cycle,
                node,
                packet,
                flit_index,
            },
            TraceEventKind::FairnessFlip => TraceEvent::FairnessFlip {
                cycle,
                node,
                epoch: self.arg as u64,
            },
            TraceEventKind::Drop => TraceEvent::Drop {
                cycle,
                node,
                packet,
                flit_index,
            },
            TraceEventKind::Eject => TraceEvent::Eject {
                cycle,
                node,
                packet,
                flit_index,
                latency: self.arg as u64,
            },
        }
    }
}

/// Up to [`CHUNK`] packed events.
#[derive(Debug)]
struct Chunk {
    /// Cycle of the chunk's first event; records store offsets from it.
    base: Cycle,
    records: Vec<PackedEvent>,
    /// Events that did not fit a record, in push order.
    overflow: Vec<TraceEvent>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            base: 0,
            records: Vec::with_capacity(CHUNK),
            overflow: Vec::new(),
        }
    }

    /// Append `evs`, which must fit in the room left.
    fn extend(&mut self, evs: &[TraceEvent]) {
        let Chunk {
            base,
            records,
            overflow,
        } = self;
        if records.is_empty() {
            if let Some(first) = evs.first() {
                *base = first.cycle();
            }
        }
        records.extend(evs.iter().map(|ev| {
            PackedEvent::pack(ev, *base).unwrap_or_else(|| {
                overflow.push(ev.clone());
                PackedEvent {
                    offset: 0,
                    node: 0,
                    kind: ESCAPED,
                    flit_index: 0,
                    packet: (overflow.len() - 1) as u32,
                    arg: 0,
                }
            })
        }));
    }

    fn get(&self, record: &PackedEvent) -> TraceEvent {
        if record.kind == ESCAPED {
            self.overflow[record.packet as usize].clone()
        } else {
            record.unpack(self.base)
        }
    }

    fn clear(&mut self) {
        self.records.clear();
        self.overflow.clear();
    }
}

/// Ring-buffered event store. Once `capacity` events are held, each new
/// event evicts the oldest one, so multi-million-cycle runs record the
/// *tail* of the simulation in bounded memory. `total_seen` still counts
/// every event ever pushed.
///
/// Events live in fixed-size chunks of [`CHUNK`] [`PackedEvent`]s,
/// whatever the capacity: a full chunk is never reallocated or copied, the
/// back chunk is the only one that grows, and eviction advances a cursor
/// through the front chunk, recycling it once it is spent. A long
/// unbounded trace therefore costs one allocation per chunk and never
/// holds two copies of itself, as a doubling buffer does while it grows.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    /// Every chunk but the back one is full.
    chunks: VecDeque<Chunk>,
    /// Evicted events at the start of the front chunk.
    head: usize,
    /// Retained events.
    len: usize,
    /// A spent front chunk kept for the next back chunk (bounded
    /// capacity), so a ring in steady state allocates nothing.
    spare: Option<Chunk>,
    total_seen: u64,
}

impl RingRecorder {
    /// `capacity` of zero means unbounded (keep everything).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity,
            chunks: VecDeque::new(),
            head: 0,
            len: 0,
            spare: None,
            total_seen: 0,
        }
    }

    pub fn push(&mut self, ev: TraceEvent) {
        self.extend_from_slice(std::slice::from_ref(&ev));
    }

    /// Append `evs` in order, as that many [`push`](Self::push)es would.
    pub fn extend_from_slice(&mut self, mut evs: &[TraceEvent]) {
        self.total_seen += evs.len() as u64;
        while !evs.is_empty() {
            if self.chunks.back().is_none_or(|c| c.records.len() == CHUNK) {
                let chunk = self.spare.take().unwrap_or_else(Chunk::new);
                self.chunks.push_back(chunk);
            }
            let back = self.chunks.back_mut().expect("a back chunk with room");
            let n = (CHUNK - back.records.len()).min(evs.len());
            back.extend(&evs[..n]);
            evs = &evs[n..];
            self.len += n;
            self.evict();
        }
    }

    /// Drop the oldest events beyond `capacity`. The newest event is always
    /// kept (capacity >= 1), so a spent front chunk is never the back one.
    fn evict(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.len > self.capacity {
            let front = self.chunks[0].records.len() - self.head;
            let n = (self.len - self.capacity).min(front);
            self.head += n;
            self.len -= n;
            if n == front {
                let mut spent = self.chunks.pop_front().expect("front chunk");
                spent.clear();
                self.spare = Some(spent);
                self.head = 0;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events pushed over the recorder's lifetime, including evicted ones.
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// True if events have been evicted to respect the capacity bound.
    pub fn overflowed(&self) -> bool {
        self.total_seen > self.len as u64
    }

    /// Retained events, oldest first, decoded one at a time.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + Clone + '_ {
        let head = self.head;
        self.chunks.iter().enumerate().flat_map(move |(i, c)| {
            let live = &c.records[if i == 0 { head } else { 0 }..];
            live.iter().map(move |r| c.get(r))
        })
    }

    /// Drain the retained events, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inject(cycle: u64) -> TraceEvent {
        TraceEvent::Inject {
            cycle,
            node: NodeId(0),
            packet: PacketId(cycle),
            flit_index: 0,
        }
    }

    #[test]
    fn keeps_newest_when_full() {
        let mut r = RingRecorder::new(3);
        for c in 0..10 {
            r.push(inject(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_seen(), 10);
        assert!(r.overflowed());
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let mut r = RingRecorder::new(0);
        for c in 0..100 {
            r.push(inject(c));
        }
        assert_eq!(r.len(), 100);
        assert!(!r.overflowed());
        assert_eq!(r.into_events().len(), 100);
    }

    #[test]
    fn wide_fields_escape_and_decode_verbatim() {
        let wide = TraceEvent::Eject {
            cycle: 5,
            node: NodeId(u16::MAX),
            packet: PacketId(u64::MAX),
            flit_index: u16::MAX,
            latency: u64::MAX,
        };
        let mut r = RingRecorder::new(0);
        r.extend_from_slice(&[inject(7), wide.clone(), inject(6), inject(7 + (1 << 32))]);
        assert_eq!(r.chunks[0].overflow.len(), 3, "wide, backwards, far");
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![7, 5, 6, 7 + (1 << 32)]);
        assert_eq!(r.iter().nth(1), Some(wide));
    }
}
