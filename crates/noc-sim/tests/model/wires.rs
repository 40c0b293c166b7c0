//! `Wires` against `noc_topology::DelayLine`, and the engine's wire
//! footprint: the unit tests of `src/wires.rs`, kept out of `src` so the
//! engine's sources name no `DelayLine`.
//!
//! The planes drop the per-wire ring and its delivery stamps because the
//! engine keeps two rules: at most one send per wire per cycle, and every
//! wire read every cycle. Under any schedule that keeps them, the planes
//! must deliver exactly what one `DelayLine` per wire delivers, at the
//! same cycle, whether a node reads before or after its neighbours send;
//! and a second send into a full slot must panic as the line's overrun
//! does, in release builds too.

use super::*;
use crate::{CREDIT_LATENCY, LINK_LATENCY};
use noc_core::flit::{Flit, PacketId};
use noc_core::types::NodeId;
use noc_topology::DelayLine;
use proptest::prelude::*;
use std::fmt::Debug;
use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};

const NODES: usize = 3;
const WIRES: usize = NODES * NUM_LINK_PORTS;

/// One cycle of a schedule: which wires get a send (bit `node * 4 +
/// port`), which nodes read before the sends rather than after, and
/// which wire is sent into a second time (none when `>= WIRES`).
type Step = (u16, u8, u8);

/// Drive the planes and one reference line per wire through `schedule`.
/// `item(n)` must never be `T::default()`, the planes' empty slot.
fn check_against_delay_lines<T: Copy + Default + PartialEq + Debug>(
    latency: u64,
    schedule: &[Step],
    item: impl Fn(u32) -> T,
) -> Result<(), TestCaseError> {
    let mut wires: Wires<T> = Wires::new(latency, NODES);
    let mut lines: Vec<DelayLine<T>> = (0..WIRES).map(|_| DelayLine::new(latency)).collect();
    let mut sent = 0u32;
    for (t, &(sends, early, twice)) in schedule.iter().enumerate() {
        let t = t as u64;
        for node in (0..NODES).filter(|n| early >> n & 1 == 1) {
            read(&mut wires, &mut lines, t, node)?;
        }
        for w in (0..WIRES).filter(|w| sends >> w & 1 == 1) {
            sent += 1;
            wires.send(t, w / NUM_LINK_PORTS, w % NUM_LINK_PORTS, item(sent));
            lines[w].send(t, item(sent));
        }
        let w = usize::from(twice);
        if w < WIRES && sends >> w & 1 == 1 {
            let (node, port) = (w / NUM_LINK_PORTS, w % NUM_LINK_PORTS);
            let again = catch_unwind(AssertUnwindSafe(|| wires.send(t, node, port, item(0))));
            let reference = catch_unwind(AssertUnwindSafe(|| lines[w].send(t, item(0))));
            prop_assert!(
                again.is_err() && reference.is_err(),
                "second send at {} did not panic",
                t
            );
        }
        for node in (0..NODES).filter(|n| early >> n & 1 == 0) {
            read(&mut wires, &mut lines, t, node)?;
        }
    }
    Ok(())
}

/// Read `node`'s four wires at `t` from both sides; they must agree.
fn read<T: Copy + Default + PartialEq + Debug>(
    wires: &mut Wires<T>,
    lines: &mut [DelayLine<T>],
    t: u64,
    node: usize,
) -> Result<(), TestCaseError> {
    for (port, got) in wires.recv(t, node).into_iter().enumerate() {
        let want = lines[node * NUM_LINK_PORTS + port].recv(t);
        prop_assert_eq!(
            got,
            want.unwrap_or_default(),
            "node {} port {} at {}",
            node,
            port,
            t
        );
    }
    Ok(())
}

fn schedule() -> impl Strategy<Value = Vec<Step>> {
    let twice = 0..8 * WIRES as u8;
    proptest::collection::vec((0u16..1 << WIRES, 0u8..1 << NODES, twice), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn credit_planes_match_delay_lines(latency in 1u64..=2, schedule in schedule()) {
        check_against_delay_lines(latency, &schedule, |n| n + 1)?;
    }

    #[test]
    fn flit_planes_match_delay_lines(latency in 1u64..=2, schedule in schedule()) {
        check_against_delay_lines(latency, &schedule, |n| {
            Some(Flit::synthetic(PacketId(n as u64), NodeId(0), NodeId(1), n as u64))
        })?;
    }
}

#[test]
fn a_second_send_in_one_cycle_panics() {
    for latency in [1, 2] {
        let mut wires: Wires<u32> = Wires::new(latency, NODES);
        wires.send(5, 2, 3, 1);
        let again = catch_unwind(AssertUnwindSafe(|| wires.send(5, 2, 3, 1)));
        assert!(again.is_err(), "latency {latency}: overrun went unnoticed");
        assert_eq!(wires.recv(5 + latency, 2), [0, 0, 0, 1]);
    }
}

/// The planes are the largest per-node arrays the engine streams every
/// cycle: three planes of four 48-byte flit slots and two of four credit
/// words, 576 + 32 = 608 bytes a node (the per-wire rings they replaced
/// took 608 + 128).
#[test]
fn engine_wires_cost_608_bytes_per_node() {
    let links = (LINK_LATENCY as usize + 1) * size_of::<[Option<Flit>; NUM_LINK_PORTS]>();
    let credits = (CREDIT_LATENCY as usize + 1) * size_of::<[u32; NUM_LINK_PORTS]>();
    assert_eq!((links, credits), (576, 32), "per-node wires changed size");
}
