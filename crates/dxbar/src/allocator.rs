//! Separable output-first switch allocator with two serial V:1 arbiters
//! (Section II-B-1 of the paper).
//!
//! Each of the `P` input ports of the unified crossbar can present up to
//! `V = 2` flits per cycle: the bufferless incoming flit (`I`) and the
//! buffered flit (`I'`). Allocation proceeds in the paper's stages:
//!
//! 1. the two request vectors of an input port are OR-ed into one `P`-bit
//!    vector;
//! 2. each output port's P:1 arbiter independently grants one requesting
//!    *input port*;
//! 3. on the input side, a first V:1 arbiter selects one flit and matches it
//!    with one of the outputs granted to this input; a **second V:1 arbiter
//!    in series** — its selection vector masked by the first winner so it
//!    can never pick the same flit — selects an additional flit for a
//!    different granted output.
//!
//! Arbiter priority is a caller-supplied key (the routers pass age-based
//! priority, giving the paper's oldest-first behaviour); the allocator
//! itself guarantees structural legality: <= 1 grant per output, <= V
//! grants per input, distinct flits and distinct outputs within an input.

/// Requests of one input port: `requests[v]` is a bitmask over outputs the
/// `v`-th flit wants (bit `o` = output `o`); `None` = no flit in slot `v`.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputRequests<K> {
    /// Request mask + priority key per flit slot (slot 0 = bufferless
    /// incoming `I`, slot 1 = buffered `I'`). Larger keys win.
    pub slots: [Option<(u8, K)>; 2],
}

/// One granted connection: flit slot `v` of input `input` to `output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    pub input: usize,
    pub v: usize,
    pub output: usize,
}

/// Run the separable output-first allocation with the default first-fit
/// output choice (lowest set bit) in the V:1 arbiters.
pub fn allocate<K: Ord + Copy>(inputs: &[InputRequests<K>], outputs: usize) -> Vec<Grant> {
    let mut grants = Vec::new();
    allocate_with_into(
        inputs,
        outputs,
        |_, _, usable| usable.trailing_zeros() as usize,
        &mut grants,
    );
    grants
}

/// Run the separable output-first allocation for `P` inputs and `outputs`
/// output ports, appending grants in input order into a caller-owned sink
/// (the router passes a stack-backed `InlineVec`, so the per-cycle
/// allocation path stays heap-free).
///
/// `choose(input, v, usable)` selects which of the `usable` granted outputs
/// (a non-zero bitmask) the V:1 arbiter hands to flit `v` of `input` —
/// the router uses this hook for congestion-aware adaptive preference; the
/// returned index must be a set bit of `usable`.
pub fn allocate_with_into<K: Ord + Copy>(
    inputs: &[InputRequests<K>],
    outputs: usize,
    choose: impl Fn(usize, usize, u8) -> usize,
    grants: &mut impl Extend<Grant>,
) {
    assert!(outputs <= 8, "bitmask is u8");
    assert!(
        inputs.len() <= 64,
        "granted-mask scatter array is fixed-size"
    );
    let out_mask: u8 = if outputs == 8 {
        0xff
    } else {
        (1u8 << outputs) - 1
    };

    // Stage 1+2 (paper's first stage): each output's P:1 arbiter picks the
    // requesting input whose best flit has the highest priority. A single
    // pass over the request matrix keeps a running winner per output —
    // each request is touched once instead of once per output. The OR
    // stage falls out for free: both slots of an input update the same
    // winner entry, so the output arbiter effectively ranks the port by
    // its best flit. Scanning inputs in ascending order and keeping the
    // incumbent on key ties reproduces `max_by_key((k, Reverse(p)))`.
    let mut best = [None::<(K, usize)>; 8];
    for (p, req) in inputs.iter().enumerate() {
        for &(mask, k) in req.slots.iter().flatten() {
            let mut m = mask & out_mask;
            while m != 0 {
                let o = m.trailing_zeros() as usize;
                m &= m - 1;
                match best[o] {
                    Some((bk, _)) if bk >= k => {}
                    _ => best[o] = Some((k, p)),
                }
            }
        }
    }
    // Scatter the winners into per-input granted masks (one pass over the
    // outputs, replacing the per-input filter over `outputs`).
    let mut granted = [0u8; 64];
    for (o, b) in best[..outputs].iter().enumerate() {
        if let Some((_, p)) = b {
            granted[*p] |= 1 << o;
        }
    }

    // Input side: two serial V:1 arbiters per input.
    for (p, req) in inputs.iter().enumerate() {
        // Outputs granted to this input by the output arbiters.
        let granted_mask: u8 = granted[p];
        if granted_mask == 0 {
            continue;
        }

        // First V:1 arbiter: highest-priority flit with a granted output.
        let first = (0..2)
            .filter_map(|v| {
                req.slots[v].and_then(|(mask, k)| {
                    let usable = mask & granted_mask;
                    (usable != 0).then_some((v, usable, k))
                })
            })
            .max_by_key(|&(v, _, k)| (k, std::cmp::Reverse(v)));
        let Some((v1, usable1, _)) = first else {
            continue;
        };
        let o1 = choose(p, v1, usable1);
        debug_assert!(
            usable1 & (1 << o1) != 0,
            "choose() picked a non-usable output"
        );
        grants.extend(std::iter::once(Grant {
            input: p,
            v: v1,
            output: o1,
        }));

        // Second V:1 arbiter in series: the first winner's slot is masked
        // out of its selection vector, and the chosen output must differ.
        let remaining_mask = granted_mask & !(1u8 << o1);
        let second = (0..2)
            .filter(|&v| v != v1)
            .filter_map(|v| {
                req.slots[v].and_then(|(mask, k)| {
                    let usable = mask & remaining_mask;
                    (usable != 0).then_some((v, usable, k))
                })
            })
            .max_by_key(|&(v, _, k)| (k, std::cmp::Reverse(v)));
        if let Some((v2, usable2, _)) = second {
            let o2 = choose(p, v2, usable2);
            debug_assert!(
                usable2 & (1 << o2) != 0,
                "choose() picked a non-usable output"
            );
            grants.extend(std::iter::once(Grant {
                input: p,
                v: v2,
                output: o2,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req<K>(slots: [Option<(u8, K)>; 2]) -> InputRequests<K> {
        InputRequests { slots }
    }

    #[test]
    fn single_request_granted() {
        let inputs = vec![req([Some((0b00100, 5u64)), None]), req([None, None])];
        let g = allocate(&inputs, 5);
        assert_eq!(
            g,
            vec![Grant {
                input: 0,
                v: 0,
                output: 2
            }]
        );
    }

    #[test]
    fn output_conflict_resolved_by_priority() {
        let inputs = vec![
            req([Some((0b00001, 1u64)), None]),
            req([Some((0b00001, 9u64)), None]), // higher priority
        ];
        let g = allocate(&inputs, 5);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].input, 1);
    }

    #[test]
    fn dual_flits_same_input_reach_two_outputs() {
        // The paper's Fig. 4(b): I0 -> O2 and I0' -> O3 simultaneously.
        let inputs = vec![req([Some((0b00100, 10u64)), Some((0b01000, 5u64))])];
        let mut g = allocate(&inputs, 5);
        g.sort_by_key(|g| g.v);
        assert_eq!(g.len(), 2);
        assert_eq!((g[0].v, g[0].output), (0, 2));
        assert_eq!((g[1].v, g[1].output), (1, 3));
    }

    #[test]
    fn serial_second_arbiter_never_reuses_flit_or_output() {
        // Both flits want the same single output: only one grant.
        let inputs = vec![req([Some((0b00010, 10u64)), Some((0b00010, 5u64))])];
        let g = allocate(&inputs, 5);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].v, 0, "higher priority flit wins the shared output");
    }

    #[test]
    fn second_flit_takes_alternate_output() {
        // Flit 0 wants O1 only; flit 1 wants O1 or O2. Flit 0 takes O1,
        // the serial arbiter routes flit 1 to O2.
        let inputs = vec![req([Some((0b00010, 10u64)), Some((0b00110, 5u64))])];
        let mut g = allocate(&inputs, 5);
        g.sort_by_key(|g| g.v);
        assert_eq!(g.len(), 2);
        assert_eq!((g[0].v, g[0].output), (0, 1));
        assert_eq!((g[1].v, g[1].output), (1, 2));
    }

    #[test]
    fn buffered_flit_wins_when_priority_flipped() {
        // Fairness flip: the buffered slot carries the larger key.
        let inputs = vec![req([Some((0b00001, 1u64)), Some((0b00001, 2u64))])];
        let g = allocate(&inputs, 5);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].v, 1);
    }

    #[test]
    fn empty_requests_no_grants() {
        let inputs: Vec<InputRequests<u64>> = vec![req([None, None]); 5];
        assert!(allocate(&inputs, 5).is_empty());
    }

    proptest! {
        /// Structural legality for arbitrary request matrices.
        #[test]
        fn prop_allocation_legal(
            masks in proptest::collection::vec(
                (proptest::option::of((0u8..32, 0u64..16)),
                 proptest::option::of((0u8..32, 0u64..16))), 1..6)
        ) {
            let inputs: Vec<InputRequests<u64>> =
                masks.iter().map(|&(a, b)| req([a, b])).collect();
            let grants = allocate(&inputs, 5);

            // <= 1 grant per output.
            let mut out_seen = [false; 5];
            // <= 1 grant per (input, v); outputs distinct within an input.
            let mut slot_seen = std::collections::HashSet::new();
            let mut per_input: std::collections::HashMap<usize, Vec<usize>> = Default::default();
            for g in &grants {
                prop_assert!(!out_seen[g.output], "output granted twice");
                out_seen[g.output] = true;
                prop_assert!(slot_seen.insert((g.input, g.v)), "slot granted twice");
                per_input.entry(g.input).or_default().push(g.output);
                // Grant implies request.
                let (mask, _) = inputs[g.input].slots[g.v].expect("granted slot exists");
                prop_assert!(mask & (1 << g.output) != 0, "grant without request");
            }
            for (_, outs) in per_input {
                prop_assert!(outs.len() <= 2);
            }
        }

        /// Work conservation for a single input: if any flit requests any
        /// output, at least one grant happens.
        #[test]
        fn prop_single_input_work_conserving(a in 1u8..32, b in 0u8..32) {
            let inputs = vec![req([Some((a, 3u64)), (b != 0).then_some((b, 1u64))])];
            let grants = allocate(&inputs, 5);
            prop_assert!(!grants.is_empty());
        }
    }
}
