//! `RingRecorder` against a reference model.
//!
//! The recorder stores events packed 16 bytes apiece in fixed-size chunks,
//! escapes the ones that do not fit into a per-chunk overflow list, and
//! evicts by moving a cursor through the front chunk; the model is the
//! plain `VecDeque<TraceEvent>` it replaced, popping the oldest event
//! whenever a push takes it past the capacity. Under any mix of single
//! pushes and bulk appends — sized to end exactly on, just before and just
//! after chunk boundaries, and to evict across them — both must show the
//! same events, length and counters after every operation, at capacities
//! around one chunk and several, and unbounded. The streams mix all nine
//! event kinds in no particular cycle order, and a quarter of their events
//! carry values on or past the edge of a packed record: cycles that jump
//! 2³² ahead or go backwards, packet ids of 2³² and up, flit indices past
//! 255, waits, latencies and epochs of 2³² and up, occupancy `u32::MAX`.

use noc_core::{Direction, NodeId, PacketId, ALL_DIRECTIONS};
use noc_trace::recorder::{PackedEvent, CHUNK};
use noc_trace::{RingRecorder, TraceEvent, TraceEventKind};
use proptest::prelude::*;
use std::collections::VecDeque;

/// SplitMix64: one well-mixed word per (seed, index).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 64-bit field: small, or (on an edge event) on either side of 2³².
fn field(r: u64, edge: bool) -> u64 {
    if !edge {
        return r % 1000;
    }
    match r % 6 {
        0 => u32::MAX as u64,
        1 => 1 << 32,
        2 => u64::MAX,
        3 => (1 << 32) | (r >> 8),
        _ => r % 1000,
    }
}

/// Event `i` of stream `seed`: any kind, any node and direction, cycles
/// roughly following `i`; every fourth event or so is an edge event.
fn event(seed: u64, i: u64) -> TraceEvent {
    let r = |salt: u64| mix(seed ^ mix(i.wrapping_mul(16) + salt));
    let edge = r(0) % 4 == 0;
    let cycle = match (edge, r(1) % 5) {
        (false, _) => i + r(1) % 4,
        (true, 0) => i + (1 << 32) + r(2) % 8,
        (true, 1) => i / 2,
        (true, 2) => 0,
        (true, 3) => u64::MAX - r(2) % 8,
        (true, _) => i + u32::MAX as u64,
    };
    let node = NodeId(r(3) as u16);
    let packet = PacketId(field(r(4), edge));
    let flit_index = if edge && r(5) % 2 == 0 {
        256 + (r(6) % (u16::MAX as u64 - 255)) as u16
    } else {
        (r(6) % 256) as u16
    };
    let dir = |salt| ALL_DIRECTIONS[(r(salt) % 5) as usize];
    let arg = field(r(7), edge);
    match TraceEventKind::ALL[(r(8) % 9) as usize] {
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
            dir: dir(9),
        },
        TraceEventKind::BufferEnter => TraceEvent::BufferEnter {
            cycle,
            node,
            packet,
            flit_index,
            occupancy: if edge && r(10) % 2 == 0 {
                u32::MAX
            } else {
                arg as u32
            },
        },
        TraceEventKind::BufferExit => TraceEvent::BufferExit {
            cycle,
            node,
            packet,
            flit_index,
            waited: arg,
        },
        TraceEventKind::Deflect => TraceEvent::Deflect {
            cycle,
            node,
            packet,
            flit_index,
            wanted: dir(9),
            got: dir(10),
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
            epoch: arg,
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
            latency: arg,
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

fn check_against_model(
    capacity: usize,
    seed: u64,
    ops: &[(bool, u16)],
) -> Result<(), TestCaseError> {
    let mut recorder = RingRecorder::new(capacity);
    let mut model: VecDeque<TraceEvent> = VecDeque::new();
    let mut next = 0u64;
    for &(bulk, raw) in ops {
        let batch: Vec<TraceEvent> = (next..next + batch_len(raw) as u64)
            .map(|i| event(seed, i))
            .collect();
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
        prop_assert!(recorder.iter().eq(model.iter().cloned()));
    }
    prop_assert_eq!(recorder.into_events(), Vec::from(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn ring_recorder_matches_event_deque(
        capacity in proptest::sample::select(vec![0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK]),
        seed in any::<u64>(),
        ops in proptest::collection::vec((any::<bool>(), any::<u16>()), 1..12),
    ) {
        check_against_model(capacity, seed, &ops)?;
    }
}

/// A bounded ring evicting across many chunk boundaries keeps exactly the
/// newest `capacity` events, whichever way they arrived.
#[test]
fn bounded_ring_keeps_the_newest_events_across_chunks() {
    for capacity in [1, CHUNK - 1, CHUNK + 1] {
        let mut single = RingRecorder::new(capacity);
        let mut bulk = RingRecorder::new(capacity);
        let stream: Vec<TraceEvent> = (0..(3 * CHUNK + 7) as u64).map(|i| event(7, i)).collect();
        for ev in &stream {
            single.push(ev.clone());
        }
        for part in stream.chunks(CHUNK / 3) {
            bulk.extend_from_slice(part);
        }
        let newest = &stream[stream.len() - capacity..];
        assert!(
            single.iter().eq(newest.iter().cloned()),
            "capacity {capacity}"
        );
        assert_eq!(bulk.into_events(), newest, "capacity {capacity}");
    }
}

/// A stored event is half a `TraceEvent`, and the model's streams really
/// exercise both paths: most events pack, and every kind also escapes.
#[test]
fn records_are_16_bytes_and_streams_cover_both_paths() {
    assert_eq!(std::mem::size_of::<PackedEvent>(), 16);
    assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
    let mut kinds = [0usize; 9];
    let mut edge = 0;
    for i in 0..(4 * CHUNK) as u64 {
        let ev = event(1, i);
        kinds[ev.kind() as usize] += 1;
        if ev.cycle() > i + 3 || ev.cycle() < i || ev.packet().is_some_and(|p| p.0 >= 1 << 32) {
            edge += 1;
        }
    }
    assert!(kinds.iter().all(|&n| n > 0), "every kind drawn: {kinds:?}");
    assert!(edge > CHUNK / 4, "edge events drawn: {edge}");
    let dirs = (0..256).map(|i| event(2, i)).filter_map(|e| match e {
        TraceEvent::Deflect { wanted, got, .. } => Some((wanted, got)),
        _ => None,
    });
    assert!(dirs.clone().any(|(w, _)| w == Direction::Local));
    assert!(dirs.clone().any(|(_, g)| g == Direction::West));
}
