//! `DelayLine` against a reference model, and its footprint.
//!
//! The dense ring (stamps beside bare `Option<T>` slots, inline up to
//! period 3, heap beyond) must behave exactly like the obvious list of
//! `(delivery cycle, item)` pairs under any schedule the engine's clock
//! can produce — including cycles nobody polls, which leave stale items
//! behind that must block their slot and never be handed out late.

use noc_core::flit::{Flit, PacketId};
use noc_core::types::NodeId;
use noc_topology::DelayLine;
use proptest::prelude::*;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Drive one line and the reference through `ops`: `(op, gap)` advances
/// the clock by `gap` cycles (0 = another operation in the same cycle)
/// and then sends, receives, peeks or clears.
fn check_against_model<T: Clone + PartialEq + Debug>(
    latency: u64,
    ops: &[(u8, u64)],
    item: impl Fn(u32) -> T,
) -> Result<(), TestCaseError> {
    let period = latency + 1;
    let mut line: DelayLine<T> = DelayLine::new(latency);
    let mut model: Vec<(u64, T)> = Vec::new();
    let mut t = 0u64;
    prop_assert_eq!(line.latency(), latency);
    for (n, &(op, gap)) in ops.iter().enumerate() {
        t += gap;
        let due = model.iter().position(|(deliver, _)| *deliver == t);
        match op {
            0..=6 => {
                let deliver = t + latency;
                let x = item(n as u32);
                let sent = catch_unwind(AssertUnwindSafe(|| line.send(t, x.clone())));
                if model.iter().any(|(d, _)| d % period == deliver % period) {
                    // Second send of a cycle, or a stale item in the way.
                    prop_assert!(sent.is_err(), "send at {} overran silently", t);
                } else {
                    prop_assert!(sent.is_ok(), "send at {} panicked on a free slot", t);
                    model.push((deliver, x));
                }
            }
            7..=12 => prop_assert_eq!(line.recv(t), due.map(|i| model.remove(i).1)),
            13..=14 => prop_assert_eq!(line.peek(t), due.map(|i| &model[i].1)),
            _ => {
                line.clear();
                model.clear();
            }
        }
        prop_assert_eq!(line.in_flight(), model.len());
        prop_assert_eq!(line.is_empty(), model.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn credit_wire_matches_model(
        latency in 1u64..=6,
        ops in proptest::collection::vec((0u8..16, 0u64..4), 1..300),
    ) {
        check_against_model(latency, &ops, |n| n)?;
    }

    #[test]
    fn flit_link_matches_model(
        latency in 1u64..=6,
        ops in proptest::collection::vec((0u8..16, 0u64..4), 1..300),
    ) {
        check_against_model(latency, &ops, |n| {
            Flit::synthetic(PacketId(n as u64), NodeId(0), NodeId(1), n as u64)
        })?;
    }
}

/// The inline ring keeps a short line in its owner's array element; this
/// pins its size for four flit lines and four credit lines (608 + 128
/// bytes today). The engine's own wires are cycle planes, not delay
/// lines; the tests of `noc-sim/src/wires.rs` pin those.
#[test]
fn four_flit_and_four_credit_lines_stay_within_832_bytes() {
    let links = std::mem::size_of::<[Option<DelayLine<Flit>>; 4]>();
    let credits = std::mem::size_of::<[Option<DelayLine<u32>>; 4]>();
    assert!(
        links + credits <= 832,
        "delay lines grew: {links} B of flit lines + {credits} B of credit lines"
    );
}
