//! `SourceQueue` against a reference model, and its footprint.
//!
//! The queue keeps packets as ranges and builds one flit at a time; the
//! model is what the engine used to keep — a plain `VecDeque<Flit>` filled
//! from `PacketDesc::flits()`. Under any mix of lossy and lossless pushes,
//! retransmissions cutting in at the front, NI sequencing of the head and
//! pops, both must show the same head, the same backlog and the same
//! overflow count after every operation.

use noc_core::flit::{Flit, FlitKind, PacketDesc, PacketId};
use noc_core::types::NodeId;
use noc_sim::source_queue::{PacketRange, SourceQueue};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Small enough that random pushes hit it, and multi-flit packets
/// straddle it.
const CAP: usize = 6;

/// Drive one queue and the reference through `ops`; `(op, a)` picks the
/// operation and its argument.
fn check_against_model(ops: &[(u8, u8)]) -> Result<(), TestCaseError> {
    let mut queue = SourceQueue::new(CAP);
    let mut model: VecDeque<Flit> = VecDeque::new();
    let (mut overflow, mut model_overflow) = (0usize, 0usize);
    // Flits that left the queue and may come back as retransmissions.
    let mut in_network: Vec<Flit> = Vec::new();
    let mut next_seq = 1u32;
    for (n, &(op, a)) in ops.iter().enumerate() {
        match op {
            // Push a packet of 1..=5 flits; one in eight is lossless.
            0..=6 => {
                let lossless = a % 8 == 7;
                let desc = PacketDesc {
                    id: PacketId(n as u64),
                    src: NodeId(3),
                    dst: NodeId(a as u16 % 64),
                    len: 1 + a % 5,
                    created: n as u64 * 3,
                    kind: if a % 2 == 0 {
                        FlitKind::Data
                    } else {
                        FlitKind::Synthetic
                    },
                };
                let room = if lossless {
                    usize::MAX
                } else {
                    CAP.saturating_sub(queue.len())
                };
                overflow += queue.push(&desc, room);
                for flit in desc.flits() {
                    if !lossless && model.len() >= CAP {
                        model_overflow += 1;
                    } else {
                        model.push_back(flit);
                    }
                }
            }
            // A retransmission cuts in at the front — of an empty queue, of
            // an unbuilt range, of a built (perhaps sequenced) head.
            7..=9 => {
                if !in_network.is_empty() {
                    let mut flit = in_network.swap_remove(a as usize % in_network.len());
                    flit.retransmits += 1;
                    queue.requeue_front(flit);
                    model.push_front(flit);
                }
            }
            // The source NI sequences (and seals) the head in place.
            10..=11 => {
                for head in [queue.head_mut(), model.front_mut()] {
                    if let Some(f) = head.filter(|f| f.seq == 0) {
                        f.set_seq(next_seq);
                    }
                }
                next_seq += 1;
            }
            _ => {
                let popped = queue.pop();
                prop_assert_eq!(popped, model.pop_front());
                in_network.extend(popped);
            }
        }
        prop_assert_eq!(queue.len(), model.len());
        prop_assert_eq!(queue.is_empty(), model.is_empty());
        prop_assert_eq!(overflow, model_overflow);
        prop_assert_eq!(queue.head_mut().copied(), model.front().copied());
        // Building the head changed nothing a second look can see.
        prop_assert_eq!(queue.len(), model.len());
    }
    // Drain: every flit still queued comes out in model order.
    while let Some(expected) = model.pop_front() {
        prop_assert_eq!(queue.pop(), Some(expected));
    }
    prop_assert_eq!(queue.pop(), None);
    prop_assert!(queue.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn source_queue_matches_flit_deque(
        ops in proptest::collection::vec((0u8..16, any::<u8>()), 1..300),
    ) {
        check_against_model(&ops)?;
    }
}

/// A multi-flit packet cut by the cap: the flits that fit are queued, the
/// rest are overflow, and what is built says the packet's full length.
#[test]
fn packet_cut_by_the_cap_keeps_its_first_flits() {
    let mut queue = SourceQueue::new(CAP);
    let desc = PacketDesc {
        id: PacketId(9),
        src: NodeId(0),
        dst: NodeId(5),
        len: 4,
        created: 11,
        kind: FlitKind::Data,
    };
    assert_eq!(queue.push(&desc, 4), 0);
    assert_eq!(queue.push(&desc, CAP - queue.len()), 2);
    assert_eq!(queue.push(&desc, CAP - queue.len()), 4);
    assert_eq!(queue.len(), CAP);
    let built: Vec<Flit> = std::iter::from_fn(|| queue.pop()).collect();
    let expected: Vec<Flit> = desc.flits().chain(desc.flits().take(2)).collect();
    assert_eq!(built, expected);
}

/// Queued traffic is the simulator's largest per-node store at
/// saturation: a packet must stay one 24-byte entry, and the per-node
/// struct (head flit inline + two deque headers + the count) two cache
/// lines.
#[test]
fn a_queued_packet_costs_24_bytes_and_a_node_128() {
    let entry = std::mem::size_of::<PacketRange>();
    let node = std::mem::size_of::<SourceQueue>();
    assert!(entry <= 24, "queued-packet entry grew to {entry} B");
    assert!(node <= 128, "per-node source queue grew to {node} B");
}
