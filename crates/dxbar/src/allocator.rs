//! Separable output-first switch allocator with two serial V:1 arbiters
//! (Section II-B-1 of the paper), over one priority-ordered requester list.
//!
//! Each of the `P` input rows of the unified crossbar can present up to
//! `V = 2` flits per cycle: the bufferless incoming flit (`I`) and the
//! buffered flit (`I'`). The caller lists every requester once, highest
//! priority first — the router's order is the dual crossbar's greedy walk:
//! incoming class first (waiters first on a fairness flip), oldest first
//! within a class — as its input row and its request mask over the
//! outputs. One [`round`] runs the paper's stages over that list:
//!
//! 1. each output's P:1 arbiter grants the row of the first requester that
//!    asks for it: a row's two request vectors are OR-ed, and the row
//!    ranks by its best flit;
//! 2. on the input side, a first V:1 arbiter matches the row's first
//!    requester that has a granted output with one of them; a **second V:1
//!    arbiter in series** — its selection vector masked by the first
//!    winner, so it can never pick the same flit or output — matches the
//!    row's other requester with a different granted output.
//!
//! Both walks work on `u8` output masks and a `u16` set of served
//! requesters, which a second round over the same list carries on from, so
//! it hands the outputs left idle to the requesters left unmatched. The
//! allocator guarantees structural legality: <= 1 grant per output, <= V
//! grants per row, distinct flits and distinct outputs within a row.

use noc_core::inline::InlineVec;

/// Input rows of the unified crossbar: four link inputs and the injection
/// port.
pub const ROWS: usize = 5;

/// One granted connection: requester `requester` (its index in the list)
/// of row `input` to `output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    pub input: usize,
    pub requester: usize,
    pub output: usize,
}

/// The grants of every round of one cycle: at most one per output.
pub type Grants = InlineVec<Grant, 5>;

/// One round of separable output-first allocation. `list` yields each
/// requester's `(input row, request mask)`, highest priority first.
/// Requesters in `served` (bit `k` = the `k`-th) and outputs in `used` take
/// no part; both gain this round's grants.
///
/// `choose(k, usable)` selects which of the `usable` granted outputs (a
/// non-zero bitmask) the V:1 arbiter hands to requester `k` — the router
/// uses this hook for congestion-aware adaptive preference; the returned
/// index must be a set bit of `usable`. Grants are appended in row order,
/// within a row in arbiter order.
pub fn round(
    list: impl Iterator<Item = (usize, u8)> + Clone,
    used: &mut u8,
    served: &mut u16,
    mut choose: impl FnMut(usize, u8) -> usize,
    grants: &mut Grants,
) {
    // Output arbiters: each free output goes to the row of the first
    // unserved requester that asks for it.
    let mut granted = [0u8; ROWS];
    let mut free = !*used;
    for (k, (input, mask)) in list.clone().enumerate() {
        if *served & 1 << k == 0 {
            granted[input] |= mask & free;
            free &= !mask;
        }
    }
    // The two serial V:1 arbiters: a row has at most two requesters, so in
    // list order the first takes one of the row's granted outputs and the
    // second one of those the first left.
    let start = grants.len();
    for (k, (input, mask)) in list.enumerate() {
        let usable = mask & granted[input];
        if *served & 1 << k != 0 || usable == 0 {
            continue;
        }
        let output = choose(k, usable);
        debug_assert!(
            usable & 1 << output != 0,
            "choose() picked a non-usable output"
        );
        granted[input] &= !(1 << output);
        *used |= 1 << output;
        *served |= 1 << k;
        grants.push(Grant {
            input,
            requester: k,
            output,
        });
    }
    grants[start..].sort_by_key(|g| g.input);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `rounds` rounds over `list` with the first-fit (lowest set bit)
    /// output choice, as `(requester, output)` pairs.
    fn allocate(list: &[(usize, u8)], rounds: usize) -> Vec<(usize, usize)> {
        let (mut used, mut served, mut grants) = (0, 0, Grants::new());
        for _ in 0..rounds {
            let first_fit = |_, usable: u8| usable.trailing_zeros() as usize;
            round(
                list.iter().copied(),
                &mut used,
                &mut served,
                first_fit,
                &mut grants,
            );
        }
        grants.iter().map(|g| (g.requester, g.output)).collect()
    }

    #[test]
    fn single_request_granted() {
        assert_eq!(allocate(&[(0, 0b00100)], 1), [(0, 2)]);
    }

    #[test]
    fn output_conflict_goes_to_the_earlier_requester() {
        assert_eq!(allocate(&[(1, 0b00001), (0, 0b00001)], 1), [(0, 0)]);
    }

    #[test]
    fn dual_flits_same_input_reach_two_outputs() {
        // The paper's Fig. 4(b): I0 -> O2 and I0' -> O3 simultaneously.
        assert_eq!(allocate(&[(0, 0b00100), (0, 0b01000)], 1), [(0, 2), (1, 3)]);
    }

    #[test]
    fn serial_second_arbiter_never_reuses_flit_or_output() {
        // Both flits want the same single output: only the first wins.
        assert_eq!(allocate(&[(0, 0b00010), (0, 0b00010)], 1), [(0, 1)]);
    }

    #[test]
    fn second_flit_takes_alternate_output() {
        // Flit 0 wants O1 only; flit 1 wants O1 or O2. Flit 0 takes O1,
        // the serial arbiter routes flit 1 to O2.
        assert_eq!(allocate(&[(0, 0b00010), (0, 0b00110)], 1), [(0, 1), (1, 2)]);
    }

    #[test]
    fn grants_come_in_row_order() {
        // Row 3 outranks row 1, but row 1's grant is listed first.
        let g = allocate(&[(3, 0b00001), (1, 0b00010)], 1);
        assert_eq!(g, [(1, 1), (0, 0)]);
    }

    #[test]
    fn second_round_serves_a_stranded_requester() {
        // Row 0 wins both O1 and O2 but uses only O1; round 2 hands O2 to
        // row 1.
        let list = [(0, 0b00110), (1, 0b00110)];
        assert_eq!(allocate(&list, 1), [(0, 1)]);
        assert_eq!(allocate(&list, 2), [(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_requests_no_grants() {
        assert!(allocate(&[(0, 0), (4, 0)], 2).is_empty());
    }

    proptest! {
        /// Structural legality for arbitrary lists of at most two
        /// requesters per row, over two rounds.
        #[test]
        fn prop_allocation_legal(
            rows in proptest::collection::vec((0u8..32, 0u8..32), 1..=ROWS),
            rotation in 0usize..2 * ROWS,
        ) {
            let mut list: Vec<(usize, u8)> = rows
                .iter()
                .enumerate()
                .flat_map(|(p, &(a, b))| [(p, a), (p, b)])
                .collect();
            let len = list.len();
            list.rotate_left(rotation % len);
            let grants = allocate(&list, 2);

            let mut out_seen = 0u8;
            let mut per_row = [0; ROWS];
            let mut served = std::collections::HashSet::new();
            for &(k, o) in &grants {
                prop_assert!(out_seen & 1 << o == 0, "output granted twice");
                out_seen |= 1 << o;
                prop_assert!(served.insert(k), "requester granted twice");
                prop_assert!(list[k].1 & 1 << o != 0, "grant without request");
                per_row[list[k].0] += 1;
            }
            prop_assert!(per_row.iter().all(|&n| n <= 2));
        }

        /// Work conservation for a single row: if any flit requests any
        /// output, at least one grant happens.
        #[test]
        fn prop_single_input_work_conserving(a in 1u8..32, b in 0u8..32) {
            prop_assert!(!allocate(&[(0, a), (0, b)], 1).is_empty());
        }
    }
}
