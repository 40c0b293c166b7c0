//! Bounded event storage: a ring buffer that keeps the newest events.

use crate::event::TraceEvent;
use std::collections::VecDeque;

/// Events per storage chunk of a [`RingRecorder`].
pub const CHUNK: usize = 4096;

/// Ring-buffered event store. Once `capacity` events are held, each new
/// event evicts the oldest one, so multi-million-cycle runs record the
/// *tail* of the simulation in bounded memory. `total_seen` still counts
/// every event ever pushed.
///
/// Events live in fixed-size chunks of [`CHUNK`] events, whatever the
/// capacity: a full chunk is never reallocated or copied, the back chunk
/// is the only one that grows, and eviction advances a cursor through the
/// front chunk, recycling it once it is spent. A long unbounded trace
/// therefore costs one allocation per chunk and never holds two copies of
/// itself, as a doubling buffer does while it grows.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    /// Every chunk but the back one is full.
    chunks: VecDeque<Vec<TraceEvent>>,
    /// Evicted events at the start of the front chunk.
    head: usize,
    /// Retained events.
    len: usize,
    /// A spent front chunk kept for the next back chunk (bounded
    /// capacity), so a ring in steady state allocates nothing.
    spare: Option<Vec<TraceEvent>>,
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
            if self.chunks.back().is_none_or(|c| c.len() == CHUNK) {
                let chunk = self
                    .spare
                    .take()
                    .unwrap_or_else(|| Vec::with_capacity(CHUNK));
                self.chunks.push_back(chunk);
            }
            let back = self.chunks.back_mut().expect("a back chunk with room");
            let n = (CHUNK - back.len()).min(evs.len());
            back.extend_from_slice(&evs[..n]);
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
            let front = self.chunks[0].len() - self.head;
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

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + Clone {
        let head = self.head;
        self.chunks
            .iter()
            .enumerate()
            .flat_map(move |(i, c)| &c[if i == 0 { head } else { 0 }..])
    }

    /// Drain the retained events, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        for (i, mut c) in self.chunks.into_iter().enumerate() {
            out.extend(c.drain(if i == 0 { self.head } else { 0 }..));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{NodeId, PacketId};

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
}
