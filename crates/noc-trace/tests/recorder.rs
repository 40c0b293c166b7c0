//! `RingRecorder` against a reference model.
//!
//! The recorder stores events in fixed-size chunks and evicts by moving a
//! cursor through the front one; the model is the plain
//! `VecDeque<TraceEvent>` it replaced, popping the oldest event whenever a
//! push takes it past the capacity. Under any mix of single pushes and bulk
//! appends — sized to end exactly on, just before and just after chunk
//! boundaries, and to evict across them — both must show the same events,
//! length and counters after every operation, at capacities around one
//! chunk and several, and unbounded.

use noc_core::{NodeId, PacketId};
use noc_trace::recorder::CHUNK;
use noc_trace::{RingRecorder, TraceEvent};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Event `i` of a stream: distinct per index, variants mixed.
fn event(i: u64) -> TraceEvent {
    let (node, packet) = (NodeId((i % 64) as u16), PacketId(i));
    match i % 3 {
        0 => TraceEvent::Inject {
            cycle: i,
            node,
            packet,
            flit_index: 0,
        },
        1 => TraceEvent::Eject {
            cycle: i,
            node,
            packet,
            flit_index: 1,
            latency: i / 2,
        },
        _ => TraceEvent::FairnessFlip {
            cycle: i,
            node,
            epoch: i,
        },
    }
}

/// Batch length for `raw`: empty, single events, a few, and lengths on and
/// around one and two chunks.
fn batch_len(raw: u16) -> usize {
    match raw % 8 {
        0 => 0,
        1 => 1,
        2 => (raw as usize / 8) % 16,
        3 => CHUNK - 1,
        4 => CHUNK,
        5 => CHUNK + 1,
        6 => 2 * CHUNK + 1,
        _ => raw as usize % (2 * CHUNK),
    }
}

fn check_against_model(capacity: usize, ops: &[(bool, u16)]) -> Result<(), TestCaseError> {
    let mut recorder = RingRecorder::new(capacity);
    let mut model: VecDeque<TraceEvent> = VecDeque::new();
    let mut next = 0u64;
    for &(bulk, raw) in ops {
        let batch: Vec<TraceEvent> = (next..next + batch_len(raw) as u64).map(event).collect();
        next += batch.len() as u64;
        if bulk {
            recorder.extend_from_slice(&batch);
        } else {
            for ev in &batch {
                recorder.push(ev.clone());
            }
        }
        for ev in batch {
            model.push_back(ev);
            if capacity > 0 && model.len() > capacity {
                model.pop_front();
            }
        }
        prop_assert_eq!(recorder.len(), model.len());
        prop_assert_eq!(recorder.is_empty(), model.is_empty());
        prop_assert_eq!(recorder.total_seen(), next);
        prop_assert_eq!(recorder.overflowed(), next > model.len() as u64);
        prop_assert!(recorder.iter().eq(model.iter()));
    }
    prop_assert_eq!(recorder.into_events(), Vec::from(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn ring_recorder_matches_event_deque(
        capacity in proptest::sample::select(vec![0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK]),
        ops in proptest::collection::vec((any::<bool>(), any::<u16>()), 1..12),
    ) {
        check_against_model(capacity, &ops)?;
    }
}

/// A bounded ring evicting across many chunk boundaries keeps exactly the
/// newest `capacity` events, whichever way they arrived.
#[test]
fn bounded_ring_keeps_the_newest_events_across_chunks() {
    for capacity in [1, CHUNK - 1, CHUNK + 1] {
        let mut single = RingRecorder::new(capacity);
        let mut bulk = RingRecorder::new(capacity);
        let stream: Vec<TraceEvent> = (0..(3 * CHUNK + 7) as u64).map(event).collect();
        for ev in &stream {
            single.push(ev.clone());
        }
        for part in stream.chunks(CHUNK / 3) {
            bulk.extend_from_slice(part);
        }
        let newest = &stream[stream.len() - capacity..];
        assert!(single.iter().eq(newest.iter()), "capacity {capacity}");
        assert_eq!(bulk.into_events(), newest, "capacity {capacity}");
    }
}
