//! Fixed-latency delay lines.
//!
//! A [`DelayLine`] models a pipelined channel that accepts at most one item
//! per cycle and delivers it exactly `latency` cycles later. Flit links,
//! credit return wires and look-ahead signal wires are all 1-cycle delay
//! lines in the paper; SCARAB's NACK network uses longer, per-message
//! latencies and is modelled separately with a timed heap.
//!
//! The simulation engine keeps its own wires as cycle planes
//! (`noc-sim/src/wires.rs`), which need neither a ring per wire nor delivery
//! stamps; `DelayLine` is the general channel and the reference those
//! planes are tested against.

use noc_core::types::Cycle;

/// A single-item-per-cycle channel with fixed latency.
///
/// `send(cycle, item)` may be called at most once per cycle value;
/// `recv(cycle)` returns the item sent at `cycle - latency`, if any.
/// Cycles must be presented in non-decreasing order (the engine's clock).
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    /// Ring of in-flight items indexed by delivery cycle modulo the ring
    /// period (`latency + 1`).
    ring: Ring<T>,
}

/// Slots of an inline ring: periods 2 and 3 (latency 1 and 2, the
/// paper's credit and flit wires).
const INLINE_SLOTS: usize = 3;

/// Ring storage for a [`DelayLine`]. Short lines keep their ring inline
/// — no pointer chase per poll, and a `Vec` of lines is one contiguous
/// stream. Delivery stamps are kept *beside* the items, not zipped with
/// them, so each slot is a bare `Option<T>` that can use `T`'s niche, and
/// the stamps pack into the tail word with the period and the enum tag: a
/// line costs `3 * size_of::<Option<T>>() + 8` bytes (152 for a flit
/// line, 32 for a credit line). Longer latencies fall back to the heap.
#[derive(Debug, Clone)]
enum Ring<T> {
    /// Periods 2 and 3 (latency 1 and 2). `stamps[i]` is the low 16 bits
    /// of slot `i`'s delivery cycle — see [`DelayLine::recv`] for what
    /// that leaves of the stale-item check.
    Inline {
        items: [Option<T>; INLINE_SLOTS],
        stamps: [u16; INLINE_SLOTS],
        period: u8,
    },
    /// Any longer period, with full delivery stamps; the period is the
    /// slice length.
    Heap(Box<[(Cycle, Option<T>)]>),
}

/// Slot of an inline ring for a delivery cycle. The ring modulus runs hot,
/// so the two periods get literal divisors the compiler strength-reduces.
#[inline]
fn inline_index(period: u8, cycle: Cycle) -> usize {
    (if period == 2 { cycle & 1 } else { cycle % 3 }) as usize
}

#[cold]
fn overrun(deliver: Cycle) -> ! {
    panic!("DelayLine overrun: the slot for cycle {deliver} still holds an undelivered item")
}

impl<T> DelayLine<T> {
    /// Create a delay line. `latency` must be at least 1 — a zero-latency
    /// channel would be a combinational wire, which the two-phase engine
    /// models differently.
    pub fn new(latency: u64) -> DelayLine<T> {
        assert!(latency >= 1, "DelayLine latency must be >= 1");
        // latency + 1 slots: within one engine cycle an upstream router may
        // send (delivery t + latency) before the downstream router has
        // received this cycle's item, so latency + 1 items transiently
        // coexist.
        let period = usize::try_from(latency + 1).expect("DelayLine latency fits the host");
        let ring = if period <= INLINE_SLOTS {
            Ring::Inline {
                items: [None, None, None],
                stamps: [0; INLINE_SLOTS],
                period: period as u8,
            }
        } else {
            let mut v = Vec::with_capacity(period);
            v.resize_with(period, || (0, None));
            Ring::Heap(v.into_boxed_slice())
        };
        DelayLine { ring }
    }

    #[inline]
    pub fn latency(&self) -> u64 {
        match &self.ring {
            Ring::Inline { period, .. } => *period as u64 - 1,
            Ring::Heap(slots) => slots.len() as u64 - 1,
        }
    }

    /// Enqueue `item` at `cycle`; it becomes receivable at
    /// `cycle + latency`.
    ///
    /// # Panics
    /// Panics if an undelivered item already occupies the slot (i.e. the
    /// caller sent twice in one cycle, or never received a delivered item —
    /// both are engine bugs, not network conditions). The check is on
    /// occupancy alone, so it is exact on either ring.
    #[inline]
    pub fn send(&mut self, cycle: Cycle, item: T) {
        let deliver = cycle + self.latency();
        match &mut self.ring {
            Ring::Inline {
                items,
                stamps,
                period,
            } => {
                let idx = inline_index(*period, deliver);
                if items[idx].is_some() {
                    overrun(deliver);
                }
                items[idx] = Some(item);
                stamps[idx] = deliver as u16;
            }
            Ring::Heap(slots) => {
                let slot = &mut slots[(deliver % slots.len() as u64) as usize];
                if slot.1.is_some() {
                    overrun(deliver);
                }
                *slot = (deliver, Some(item));
            }
        }
    }

    /// The slot `cycle` maps to, if it holds the item due at `cycle`.
    ///
    /// An item nobody received at its delivery cycle is stale: it stays in
    /// its slot (so the next send there panics) and is never handed out
    /// late. A heap ring compares full stamps; an inline ring compares the
    /// low 16 bits, so it would mistake a stale item for a due one only if
    /// polled an exact multiple of 65 536 cycles late; the overrun panic
    /// does not look at stamps at all.
    #[inline]
    fn due(&self, cycle: Cycle) -> Option<usize> {
        match &self.ring {
            Ring::Inline {
                items,
                stamps,
                period,
            } => {
                let idx = inline_index(*period, cycle);
                (stamps[idx] == cycle as u16 && items[idx].is_some()).then_some(idx)
            }
            Ring::Heap(slots) => {
                let idx = (cycle % slots.len() as u64) as usize;
                let (stamp, slot) = &slots[idx];
                (*stamp == cycle && slot.is_some()).then_some(idx)
            }
        }
    }

    /// Take the item that becomes available at `cycle`, if any.
    #[inline]
    pub fn recv(&mut self, cycle: Cycle) -> Option<T> {
        let idx = self.due(cycle)?;
        match &mut self.ring {
            Ring::Inline { items, .. } => items[idx].take(),
            Ring::Heap(slots) => slots[idx].1.take(),
        }
    }

    /// Peek at the item that becomes available at `cycle` without taking it.
    pub fn peek(&self, cycle: Cycle) -> Option<&T> {
        let idx = self.due(cycle)?;
        match &self.ring {
            Ring::Inline { items, .. } => items[idx].as_ref(),
            Ring::Heap(slots) => slots[idx].1.as_ref(),
        }
    }

    /// Number of in-flight items.
    pub fn in_flight(&self) -> usize {
        match &self.ring {
            Ring::Inline { items, .. } => items.iter().flatten().count(),
            Ring::Heap(slots) => slots.iter().filter(|(_, s)| s.is_some()).count(),
        }
    }

    /// Whether anything is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight() == 0
    }

    /// Drop everything in flight (used when a link is declared faulty).
    pub fn clear(&mut self) {
        match &mut self.ring {
            Ring::Inline { items, .. } => *items = [None, None, None],
            Ring::Heap(slots) => slots.iter_mut().for_each(|(_, s)| *s = None),
        }
    }
}

/// An unordered timed channel that can carry many items with heterogeneous
/// delays — used for SCARAB's circuit-switched NACK network, where each NACK
/// takes `hop_distance` cycles back to the source.
#[derive(Debug, Clone)]
pub struct TimedChannel<T> {
    /// Min-heap keyed on delivery cycle. Entries with equal delivery cycles
    /// are returned in insertion order (seq disambiguates), keeping the
    /// simulation deterministic.
    heap: std::collections::BinaryHeap<TimedEntry<T>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct TimedEntry<T> {
    deliver: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for TimedEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver == other.deliver && self.seq == other.seq
    }
}
impl<T> Eq for TimedEntry<T> {}
impl<T> PartialOrd for TimedEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for TimedEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .deliver
            .cmp(&self.deliver)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> Default for TimedChannel<T> {
    fn default() -> Self {
        TimedChannel {
            heap: Default::default(),
            seq: 0,
        }
    }
}

impl<T> TimedChannel<T> {
    pub fn new() -> TimedChannel<T> {
        Self::default()
    }

    /// Schedule `item` for delivery at `cycle + delay`.
    pub fn send(&mut self, cycle: Cycle, delay: u64, item: T) {
        self.heap.push(TimedEntry {
            deliver: cycle + delay,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Pop all items due at or before `cycle`, in (delivery, insertion)
    /// order.
    pub fn recv_due(&mut self, cycle: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        self.recv_due_into(cycle, &mut out);
        out
    }

    /// Like [`recv_due`](Self::recv_due), appending into a caller-owned
    /// buffer — the engine reuses one scratch `Vec` across cycles so the
    /// steady-state path performs no allocation.
    pub fn recv_due_into(&mut self, cycle: Cycle, out: &mut Vec<T>) {
        while let Some(top) = self.heap.peek() {
            if top.deliver > cycle {
                break;
            }
            out.push(self.heap.pop().expect("peeked").item);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Every item still in the channel, in no particular order.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|e| &e.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut l: DelayLine<u32> = DelayLine::new(1);
        l.send(10, 7);
        assert_eq!(l.recv(10), None);
        assert_eq!(l.recv(11), Some(7));
        assert_eq!(l.recv(12), None);
    }

    #[test]
    fn longer_latency() {
        let mut l: DelayLine<u32> = DelayLine::new(3);
        l.send(0, 1);
        l.send(1, 2);
        l.send(2, 3);
        assert_eq!(l.recv(2), None);
        assert_eq!(l.recv(3), Some(1));
        assert_eq!(l.recv(4), Some(2));
        assert_eq!(l.recv(5), Some(3));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut l: DelayLine<u32> = DelayLine::new(1);
        l.send(0, 9);
        assert_eq!(l.peek(1), Some(&9));
        assert_eq!(l.recv(1), Some(9));
        assert_eq!(l.peek(1), None);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn double_send_panics() {
        let mut l: DelayLine<u32> = DelayLine::new(1);
        l.send(0, 1);
        l.send(0, 2);
    }

    #[test]
    fn in_flight_accounting() {
        let mut l: DelayLine<u32> = DelayLine::new(4);
        assert!(l.is_empty());
        l.send(0, 1);
        l.send(1, 2);
        assert_eq!(l.in_flight(), 2);
        l.recv(4);
        assert_eq!(l.in_flight(), 1);
        l.clear();
        assert!(l.is_empty());
    }

    #[test]
    #[should_panic(expected = "latency must be >= 1")]
    fn zero_latency_rejected() {
        let _ = DelayLine::<u32>::new(0);
    }

    #[test]
    fn timed_channel_orders_by_delivery() {
        let mut ch: TimedChannel<&'static str> = TimedChannel::new();
        ch.send(0, 5, "late");
        ch.send(0, 2, "early");
        ch.send(0, 2, "early2");
        assert_eq!(ch.recv_due(1), Vec::<&str>::new());
        assert_eq!(ch.recv_due(2), vec!["early", "early2"]);
        assert_eq!(ch.recv_due(10), vec!["late"]);
        assert!(ch.is_empty());
    }

    #[test]
    fn timed_channel_equal_delivery_fifo() {
        let mut ch: TimedChannel<u32> = TimedChannel::new();
        for i in 0..10 {
            ch.send(0, 3, i);
        }
        assert_eq!(ch.recv_due(3), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn timed_channel_len() {
        let mut ch: TimedChannel<u32> = TimedChannel::new();
        ch.send(0, 1, 1);
        ch.send(0, 9, 2);
        assert_eq!(ch.len(), 2);
        let _ = ch.recv_due(5);
        assert_eq!(ch.len(), 1);
    }
}
