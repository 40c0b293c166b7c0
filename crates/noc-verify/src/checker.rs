//! Exhaustive single-router allocator micro-model-checker.
//!
//! Enumerates allocator request spaces and asserts, for every
//! configuration:
//!
//! * **structural legality** — at most one grant per output column, at most
//!   one grant per flit slot, at most two grants per input row (distinct
//!   slots, distinct outputs), and every grant backed by a request;
//! * **work conservation** — greedy allocation leaves no requested output
//!   idle; the separable allocator reaches a fixpoint (via repeated
//!   iterations) in which no free output has an unserved requester;
//! * **priority** — the oldest requester is never starved while one of its
//!   outputs is free (greedy), and the separable stages agree with an
//!   independently written reference model, pinning arbiter tie-breaks;
//! * **swap-logic correctness** — every dual grant of the unified crossbar
//!   resolves to an electrically legal segmented row (low entry strictly
//!   below high entry, packets keep their outputs, swap fired exactly when
//!   the selected columns were inverted).
//!
//! Three allocators are covered: DXbar's greedy age-ordered allocation on
//! the 4x5 **primary** crossbar (full 32^4 request space), the same greedy
//! on the 5x5 **secondary** crossbar (full turn-model alphabet always; full
//! 32^5 space in the `--ignored` sweep), and the unified design's
//! **dual-input** separable allocator with two serial V:1 arbiters plus the
//! conflict-free swap (full dual-slot mask space for competing input pairs
//! under every priority ordering, full serial-arbiter space for a single
//! row, and wide 5-input sweeps under rotated row priorities). The separable allocator that runs is the
//! router's own [`dxbar::allocator::round`], over the ordered requester
//! list a keyed request matrix stands for; both of the router's rounds are
//! checked against the reference model.

use dxbar::allocator::{round, Grants};
use dxbar::best_output;
use dxbar::conflict_free::{resolve, RowSelection};
use noc_core::arbiter::{rotating_pick, VcAllocator};
use noc_core::types::PortSet;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::fmt;

/// A configuration for which an allocator property failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// The request configuration, rendered for reproduction.
    pub config: String,
    /// Which property failed and how.
    pub reason: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocator check failed for {}: {}",
            self.config, self.reason
        )
    }
}

impl std::error::Error for CheckError {}

/// Coverage summary of one enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerReport {
    /// Request configurations enumerated.
    pub configs: u64,
    /// Total grants issued across all configurations.
    pub grants: u64,
    /// Maximum allocator iterations needed to reach the work-conserving
    /// fixpoint (unified allocator only; 1 for the greedy).
    pub max_rounds: u32,
}

impl CheckerReport {
    fn merge(self, other: CheckerReport) -> CheckerReport {
        CheckerReport {
            configs: self.configs + other.configs,
            grants: self.grants + other.grants,
            max_rounds: self.max_rounds.max(other.max_rounds),
        }
    }
}

// ---------------------------------------------------------------------------
// Greedy allocation (DXbar primary 4x5 and secondary 5x5)
// ---------------------------------------------------------------------------

/// All-links-available credit vector for the greedy model.
pub const UNIT_CREDITS: [u32; 4] = [1, 1, 1, 1];

/// Run DXbar's greedy age-ordered allocation for one request matrix.
/// `masks[i]` is the output set requested by input `i` (inputs listed
/// oldest first — the router sorts by age before allocating; an empty mask
/// means no flit). Uses the router's own [`dxbar::best_output`] decision.
pub fn greedy_allocate(masks: &[u8], credits: &[u32; 4]) -> Vec<Option<usize>> {
    let mut out_used = [false; 5];
    masks
        .iter()
        .map(|&m| {
            if m == 0 {
                return None;
            }
            let dir = best_output(PortSet(m), &out_used, credits, |_| 0)?;
            out_used[dir.index()] = true;
            Some(dir.index())
        })
        .collect()
}

/// Whether output `o` can accept a flit under `credits` (ejection always
/// can; links need a downstream slot).
fn output_available(o: usize, credits: &[u32; 4]) -> bool {
    o == 4 || credits[o] > 0
}

/// Check one greedy request matrix: structural legality, work conservation
/// and age-priority. Returns the number of grants.
pub fn check_greedy_matrix(masks: &[u8], credits: &[u32; 4]) -> Result<u64, CheckError> {
    let err = |reason: String| CheckError {
        config: format!("greedy masks {masks:?} credits {credits:?}"),
        reason,
    };
    let grants = greedy_allocate(masks, credits);
    let mut out_used = [false; 5];
    for (i, g) in grants.iter().enumerate() {
        let Some(o) = *g else { continue };
        if masks[i] & (1 << o) == 0 {
            return Err(err(format!("input {i} granted unrequested output {o}")));
        }
        if !output_available(o, credits) {
            return Err(err(format!("input {i} granted credit-less output {o}")));
        }
        if out_used[o] {
            return Err(err(format!("output {o} granted twice")));
        }
        out_used[o] = true;
    }
    // Work conservation + priority: an input goes ungranted only when every
    // available output it requested was taken — and taken by an *older*
    // input (age order = index order).
    for (i, g) in grants.iter().enumerate() {
        if g.is_some() || masks[i] == 0 {
            continue;
        }
        for (o, &used) in out_used.iter().enumerate() {
            if masks[i] & (1 << o) == 0 || !output_available(o, credits) {
                continue;
            }
            if !used {
                return Err(err(format!(
                    "work conservation: output {o} idle while input {i} requested it"
                )));
            }
            let taker = grants.iter().position(|&x| x == Some(o)).expect("used");
            if taker > i {
                return Err(err(format!(
                    "priority: younger input {taker} took output {o} from input {i}"
                )));
            }
        }
    }
    Ok(grants.iter().flatten().count() as u64)
}

/// Every request mask a DOR/WF route set can produce — `{Local}`, one or
/// two directions (minimal routes have at most two productive dimensions)
/// — plus the empty mask (credit-starved requester) and the adversarial
/// full mask.
pub fn turn_model_alphabet() -> Vec<u8> {
    let mut v = vec![0u8, 0b1_1111];
    for a in 0..5 {
        v.push(1 << a);
    }
    for a in 0..5u8 {
        for b in a + 1..5 {
            v.push((1 << a) | (1 << b));
        }
    }
    debug_assert_eq!(v.len(), 17);
    v
}

/// Exhaust the full 32^4 request space of the 4x5 primary crossbar, under
/// uniform credits and under a skewed credit pattern (one dead output).
pub fn check_primary_exhaustive() -> Result<CheckerReport, CheckError> {
    let firsts: Vec<u8> = (0..32).collect();
    let credit_patterns: [[u32; 4]; 2] = [UNIT_CREDITS, [2, 1, 0, 3]];
    let chunks: Vec<Result<CheckerReport, CheckError>> = firsts
        .par_iter()
        .map(|&a| {
            let mut rep = CheckerReport::default();
            for b in 0..32u8 {
                for c in 0..32u8 {
                    for d in 0..32u8 {
                        for credits in &credit_patterns {
                            rep.grants += check_greedy_matrix(&[a, b, c, d], credits)?;
                            rep.configs += 1;
                        }
                    }
                }
            }
            rep.max_rounds = 1;
            Ok(rep)
        })
        .collect();
    merge_reports(chunks)
}

/// Exhaust the 5x5 secondary crossbar (buffer heads + injection port) over
/// the full turn-model request alphabet: 17^5 configurations.
pub fn check_secondary_alphabet() -> Result<CheckerReport, CheckError> {
    let alpha = turn_model_alphabet();
    let chunks: Vec<Result<CheckerReport, CheckError>> = alpha
        .par_iter()
        .map(|&a| {
            let mut rep = CheckerReport {
                max_rounds: 1,
                ..Default::default()
            };
            let alpha = turn_model_alphabet();
            for &b in &alpha {
                for &c in &alpha {
                    for &d in &alpha {
                        for &e in &alpha {
                            rep.grants += check_greedy_matrix(&[a, b, c, d, e], &UNIT_CREDITS)?;
                            rep.configs += 1;
                        }
                    }
                }
            }
            Ok(rep)
        })
        .collect();
    merge_reports(chunks)
}

/// The full 32^5 secondary request space — heavyweight; run with
/// `cargo test --release -- --ignored` (the CI verify-smoke job does).
pub fn check_secondary_exhaustive() -> Result<CheckerReport, CheckError> {
    let firsts: Vec<u8> = (0..32).collect();
    let chunks: Vec<Result<CheckerReport, CheckError>> = firsts
        .par_iter()
        .map(|&a| {
            let mut rep = CheckerReport {
                max_rounds: 1,
                ..Default::default()
            };
            for b in 0..32u8 {
                for c in 0..32u8 {
                    for d in 0..32u8 {
                        for e in 0..32u8 {
                            rep.grants += check_greedy_matrix(&[a, b, c, d, e], &UNIT_CREDITS)?;
                            rep.configs += 1;
                        }
                    }
                }
            }
            Ok(rep)
        })
        .collect();
    merge_reports(chunks)
}

fn merge_reports(
    chunks: Vec<Result<CheckerReport, CheckError>>,
) -> Result<CheckerReport, CheckError> {
    let mut total = CheckerReport::default();
    for c in chunks {
        total = total.merge(c?);
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// Unified separable allocator (two serial V:1 arbiters + conflict-free swap)
// ---------------------------------------------------------------------------

/// Requests of one input row: `slots[v]` is the request mask over outputs
/// (bit `o` = output `o`) and priority key of the `v`-th flit (slot 0 =
/// bufferless incoming `I`, slot 1 = buffered `I'`); larger keys win.
/// `None` = no flit in slot `v`.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputRequests<K> {
    pub slots: [Option<(u8, K)>; 2],
}

/// One granted connection: flit slot `v` of input `input` to `output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    pub input: usize,
    pub v: usize,
    pub output: usize,
}

/// The rounds of the router's separable allocation over one keyed request
/// matrix, with the first-fit (lowest set bit) V:1 output choice.
pub struct Rounds {
    /// The requesters as the router lists them: `(input, slot, mask)` by
    /// key descending, then input, then slot — the keyed arbiters'
    /// tie-breaks (lowest input, slot `I`).
    list: Vec<(usize, usize, u8)>,
    used: u8,
    served: u16,
}

impl Rounds {
    pub fn new(inputs: &[InputRequests<u32>]) -> Rounds {
        let mut keyed: Vec<(u32, usize, usize, u8)> = Vec::new();
        for (p, req) in inputs.iter().enumerate() {
            for (v, slot) in req.slots.iter().enumerate() {
                if let Some((mask, k)) = *slot {
                    keyed.push((k, p, v, mask));
                }
            }
        }
        keyed.sort_unstable_by_key(|&(k, p, v, _)| (Reverse(k), p, v));
        Rounds {
            list: keyed
                .into_iter()
                .map(|(_, p, v, mask)| (p, v, mask))
                .collect(),
            used: 0,
            served: 0,
        }
    }

    /// Run the next round; its grants in the router's commit order.
    pub fn next_round(&mut self) -> Vec<Grant> {
        let mut grants = Grants::new();
        round(
            self.list.iter().map(|&(input, _, mask)| (input, mask)),
            &mut self.used,
            &mut self.served,
            |_, usable| usable.trailing_zeros() as usize,
            &mut grants,
        );
        grants
            .iter()
            .map(|g| Grant {
                input: g.input,
                v: self.list[g.requester].1,
                output: g.output,
            })
            .collect()
    }

    /// An unserved requester's slot and the free outputs it still asks
    /// for, if any.
    fn unserved_demand(&self) -> Option<(usize, usize, u8)> {
        self.list
            .iter()
            .enumerate()
            .filter(|&(k, _)| self.served & 1 << k == 0)
            .map(|(_, &(p, v, mask))| (p, v, mask & !self.used))
            .find(|&(_, _, free)| free != 0)
    }
}

/// Independent reference model of the separable output-first allocator with
/// the default lowest-set-bit V:1 output choice. Deliberately written with
/// explicit stage tables over the keyed matrix (not the router's ordered
/// list) so a bug in [`dxbar::allocator::round`] cannot be replicated here
/// by shared code; the differential test pins every arbiter tie-break.
pub fn reference_allocate(inputs: &[InputRequests<u32>], outputs: usize) -> Vec<Grant> {
    // Stage 1: each output's P:1 arbiter picks the requesting input whose
    // best flit carries the highest key; ties go to the lowest input index.
    let mut winner: Vec<Option<usize>> = vec![None; outputs];
    for (o, w) in winner.iter_mut().enumerate() {
        let mut best: Option<(u32, usize)> = None;
        for (p, req) in inputs.iter().enumerate() {
            let mut port_key = None;
            for slot in req.slots.iter().flatten() {
                let (mask, k) = *slot;
                if mask & (1 << o) != 0 {
                    port_key = Some(port_key.map_or(k, |x: u32| x.max(k)));
                }
            }
            if let Some(k) = port_key {
                let better = match best {
                    None => true,
                    Some((bk, _)) => k > bk,
                };
                if better {
                    best = Some((k, p));
                }
            }
        }
        *w = best.map(|(_, p)| p);
    }

    // Input side: first V:1 arbiter (highest key, ties to slot 0), then the
    // second arbiter in series with the winner's flit and output masked.
    let mut grants = Vec::new();
    for (p, req) in inputs.iter().enumerate() {
        let usable_of = |v: usize, blocked: u8| -> u8 {
            req.slots[v].map_or(0, |(mask, _)| {
                let mut u = 0u8;
                for (o, &w) in winner.iter().enumerate().take(outputs) {
                    if w == Some(p) && mask & (1 << o) != 0 {
                        u |= 1 << o;
                    }
                }
                u & !blocked
            })
        };
        let key_of = |v: usize| req.slots[v].map(|(_, k)| k).unwrap_or(0);
        let mut first: Option<usize> = None;
        for v in 0..2 {
            if usable_of(v, 0) == 0 {
                continue;
            }
            first = Some(match first {
                None => v,
                Some(w) => {
                    if key_of(v) > key_of(w) {
                        v
                    } else {
                        w
                    }
                }
            });
        }
        let Some(v1) = first else { continue };
        let o1 = usable_of(v1, 0).trailing_zeros() as usize;
        grants.push(Grant {
            input: p,
            v: v1,
            output: o1,
        });
        let v2 = 1 - v1;
        let u2 = usable_of(v2, 1 << o1);
        if u2 != 0 {
            grants.push(Grant {
                input: p,
                v: v2,
                output: u2.trailing_zeros() as usize,
            });
        }
    }
    grants
}

/// Structural legality of a grant set against its request matrix.
pub fn check_grant_structure(
    inputs: &[InputRequests<u32>],
    grants: &[Grant],
) -> Result<(), CheckError> {
    let err = |reason: String| CheckError {
        config: render_inputs(inputs),
        reason,
    };
    let mut out_seen = [false; 8];
    let mut slot_seen = [[false; 2]; 8];
    let mut per_input = [0u8; 8];
    for g in grants {
        if out_seen[g.output] {
            return Err(err(format!("output {} granted twice", g.output)));
        }
        out_seen[g.output] = true;
        if slot_seen[g.input][g.v] {
            return Err(err(format!("slot ({}, {}) granted twice", g.input, g.v)));
        }
        slot_seen[g.input][g.v] = true;
        let Some((mask, _)) = inputs.get(g.input).and_then(|r| r.slots[g.v]) else {
            return Err(err(format!("grant for empty slot ({}, {})", g.input, g.v)));
        };
        if mask & (1 << g.output) == 0 {
            return Err(err(format!(
                "input {} slot {} granted unrequested output {}",
                g.input, g.v, g.output
            )));
        }
        per_input[g.input] += 1;
    }
    for (p, &n) in per_input.iter().enumerate() {
        if n > 2 {
            return Err(err(format!("input {p} received {n} grants")));
        }
    }
    Ok(())
}

/// Swap-logic correctness for every dual-granted row: the conflict-free
/// allocator must keep both outputs, order the entry points, and swap
/// exactly when the bufferless column is above the buffered one.
pub fn check_swap_logic(inputs: &[InputRequests<u32>], grants: &[Grant]) -> Result<(), CheckError> {
    let err = |reason: String| CheckError {
        config: render_inputs(inputs),
        reason,
    };
    for p in 0..inputs.len() {
        let row: Vec<&Grant> = grants.iter().filter(|g| g.input == p).collect();
        if row.len() != 2 {
            continue;
        }
        let bufferless = row.iter().find(|g| g.v == 0);
        let buffered = row.iter().find(|g| g.v == 1);
        let (Some(bl), Some(bf)) = (bufferless, buffered) else {
            return Err(err(format!("row {p} dual grant without distinct slots")));
        };
        let sel = RowSelection {
            bufferless_out: bl.output,
            buffered_out: bf.output,
        };
        let r = resolve(sel);
        if r.low_entry_out >= r.high_entry_out {
            return Err(err(format!("row {p}: entry points not ordered: {r:?}")));
        }
        let mut resolved = [r.low_entry_out, r.high_entry_out];
        resolved.sort_unstable();
        let mut wanted = [bl.output, bf.output];
        wanted.sort_unstable();
        if resolved != wanted {
            return Err(err(format!("row {p}: packets lost their outputs: {r:?}")));
        }
        if r.swapped != (bl.output > bf.output) {
            return Err(err(format!(
                "row {p}: swap fired wrongly (bufferless {}, buffered {}, swapped {})",
                bl.output, bf.output, r.swapped
            )));
        }
        if r.open_gate != r.low_entry_out {
            return Err(err(format!("row {p}: wrong segmentation gate: {r:?}")));
        }
    }
    Ok(())
}

/// Iterate the router's rounds to their fixpoint and assert work
/// conservation: when no further grant is possible, no free output may have
/// an unserved requester. Returns the number of rounds needed.
pub fn saturate(inputs: &[InputRequests<u32>]) -> Result<u32, CheckError> {
    let mut rounds = Rounds::new(inputs);
    let mut n = 0u32;
    while !rounds.next_round().is_empty() {
        n += 1;
        if n > 8 {
            return Err(CheckError {
                config: render_inputs(inputs),
                reason: "allocator failed to reach a fixpoint".into(),
            });
        }
    }
    match rounds.unserved_demand() {
        Some((p, v, free)) => Err(CheckError {
            config: render_inputs(inputs),
            reason: format!(
                "work conservation: slot ({p}, {v}) still requests \
                 free outputs {free:#07b} after {n} round(s)"
            ),
        }),
        None => Ok(n),
    }
}

/// What a round leaves of `inputs`: the slots `grants` did not serve, their
/// masks less the outputs `grants` used (a slot left with none is empty).
pub fn residual(inputs: &[InputRequests<u32>], grants: &[Grant]) -> Vec<InputRequests<u32>> {
    let used = grants.iter().fold(0u8, |m, g| m | 1 << g.output);
    let mut residual = inputs.to_vec();
    for g in grants {
        residual[g.input].slots[g.v] = None;
    }
    for slot in residual.iter_mut().flat_map(|r| &mut r.slots) {
        *slot = slot.and_then(|(mask, k)| (mask & !used != 0).then_some((mask & !used, k)));
    }
    residual
}

fn render_inputs(inputs: &[InputRequests<u32>]) -> String {
    let rows: Vec<String> = inputs
        .iter()
        .map(|r| {
            let s: Vec<String> = r
                .slots
                .iter()
                .map(|s| match s {
                    Some((m, k)) => format!("{m:#07b}/k{k}"),
                    None => "-".into(),
                })
                .collect();
            format!("[{}]", s.join(" "))
        })
        .collect();
    format!("unified requests {}", rows.join(" "))
}

/// Full check of one unified request matrix: structural legality, the
/// router's two rounds each against the reference model (round 2 against
/// the reference applied again to what round 1 left), swap-logic
/// correctness, and fixpoint work conservation. Returns (round-1 grants,
/// rounds).
pub fn check_unified_matrix(inputs: &[InputRequests<u32>]) -> Result<(u64, u32), CheckError> {
    let mut rounds = Rounds::new(inputs);
    let first = rounds.next_round();
    let second = rounds.next_round();
    let both: Vec<Grant> = first.iter().chain(&second).copied().collect();
    check_grant_structure(inputs, &both)?;
    for (n, actual, reference) in [
        (1, &first, reference_allocate(inputs, 5)),
        (2, &second, reference_allocate(&residual(inputs, &first), 5)),
    ] {
        if *actual != reference {
            return Err(CheckError {
                config: render_inputs(inputs),
                reason: format!(
                    "round {n} differs from reference model: {actual:?} vs {reference:?}"
                ),
            });
        }
    }
    check_swap_logic(inputs, &both)?;
    let rounds = saturate(inputs)?;
    Ok((first.len() as u64, rounds.max(1)))
}

fn slot(mask: u8, key: u32) -> Option<(u8, u32)> {
    (mask != 0).then_some((mask, key))
}

/// Exhaust the two serial V:1 arbiters of a single input row: all 32x32
/// dual-slot mask pairs under both relative priority orders, with no
/// competing input (every requested output is granted to the row, so the
/// serial arbiters see the full space of selection vectors).
pub fn check_serial_arbiters_exhaustive() -> Result<CheckerReport, CheckError> {
    let mut rep = CheckerReport::default();
    for a in 0..32u8 {
        for b in 0..32u8 {
            for (ka, kb) in [(2u32, 1u32), (1, 2), (1, 1)] {
                let inputs = vec![InputRequests {
                    slots: [slot(a, ka), slot(b, kb)],
                }];
                let (g, r) = check_unified_matrix(&inputs)?;
                rep.configs += 1;
                rep.grants += g;
                rep.max_rounds = rep.max_rounds.max(r);
            }
        }
    }
    Ok(rep)
}

/// Exhaust competing dual-input pairs: two active input rows, full 32-mask
/// space for all four flit slots, under a fixed descending priority order
/// (1M configurations). Output-stage conflicts, serial-arbiter masking and
/// the swap path are all exercised.
pub fn check_unified_pairs_exhaustive() -> Result<CheckerReport, CheckError> {
    let firsts: Vec<u8> = (0..32).collect();
    let chunks: Vec<Result<CheckerReport, CheckError>> = firsts
        .par_iter()
        .map(|&a| {
            let mut rep = CheckerReport::default();
            for b in 0..32u8 {
                for c in 0..32u8 {
                    for d in 0..32u8 {
                        let inputs = vec![
                            InputRequests {
                                slots: [slot(a, 4), slot(b, 3)],
                            },
                            InputRequests {
                                slots: [slot(c, 2), slot(d, 1)],
                            },
                        ];
                        let (g, r) = check_unified_matrix(&inputs)?;
                        rep.configs += 1;
                        rep.grants += g;
                        rep.max_rounds = rep.max_rounds.max(r);
                    }
                }
            }
            Ok(rep)
        })
        .collect();
    merge_reports(chunks)
}

/// All priority orderings of a competing pair over the turn-model
/// alphabet: 17^4 mask combinations x 24 key permutations, covering every
/// relative age order of the four flits.
pub fn check_unified_pair_orders() -> Result<CheckerReport, CheckError> {
    const PERMS: [[u32; 4]; 24] = [
        [1, 2, 3, 4],
        [1, 2, 4, 3],
        [1, 3, 2, 4],
        [1, 3, 4, 2],
        [1, 4, 2, 3],
        [1, 4, 3, 2],
        [2, 1, 3, 4],
        [2, 1, 4, 3],
        [2, 3, 1, 4],
        [2, 3, 4, 1],
        [2, 4, 1, 3],
        [2, 4, 3, 1],
        [3, 1, 2, 4],
        [3, 1, 4, 2],
        [3, 2, 1, 4],
        [3, 2, 4, 1],
        [3, 4, 1, 2],
        [3, 4, 2, 1],
        [4, 1, 2, 3],
        [4, 1, 3, 2],
        [4, 2, 1, 3],
        [4, 2, 3, 1],
        [4, 3, 1, 2],
        [4, 3, 2, 1],
    ];
    let alpha = turn_model_alphabet();
    let chunks: Vec<Result<CheckerReport, CheckError>> = alpha
        .par_iter()
        .map(|&a| {
            let alpha = turn_model_alphabet();
            let mut rep = CheckerReport::default();
            for &b in &alpha {
                for &c in &alpha {
                    for &d in &alpha {
                        for ks in &PERMS {
                            let inputs = vec![
                                InputRequests {
                                    slots: [slot(a, ks[0]), slot(b, ks[1])],
                                },
                                InputRequests {
                                    slots: [slot(c, ks[2]), slot(d, ks[3])],
                                },
                            ];
                            let (g, r) = check_unified_matrix(&inputs)?;
                            rep.configs += 1;
                            rep.grants += g;
                            rep.max_rounds = rep.max_rounds.max(r);
                        }
                    }
                }
            }
            Ok(rep)
        })
        .collect();
    merge_reports(chunks)
}

/// Wide sweep: all five input rows active with bufferless flits over a
/// reduced mask alphabet (empty, singletons, three two-port masks) under
/// every rotation of descending row priorities — row `first` highest, then
/// `first + 1`, ... — 5 x 9^5 configurations of full-router competition. A
/// rotated order lists the rows out of index order, so a round that commits
/// its grants in list order instead of row order fails here.
pub fn check_unified_wide_sweep() -> Result<CheckerReport, CheckError> {
    let alpha: [u8; 9] = [0, 1, 2, 4, 8, 16, 0b00011, 0b00101, 0b11000];
    let mut rep = CheckerReport::default();
    for first in 0..5 {
        let key = |row: usize| 5 - ((row + 5 - first) % 5) as u32;
        for &a in &alpha {
            for &b in &alpha {
                for &c in &alpha {
                    for &d in &alpha {
                        for &e in &alpha {
                            let inputs = vec![
                                InputRequests {
                                    slots: [slot(a, key(0)), None],
                                },
                                InputRequests {
                                    slots: [slot(b, key(1)), None],
                                },
                                InputRequests {
                                    slots: [slot(c, key(2)), None],
                                },
                                InputRequests {
                                    slots: [slot(d, key(3)), None],
                                },
                                InputRequests {
                                    slots: [slot(e, key(4)), None],
                                },
                            ];
                            let (g, r) = check_unified_matrix(&inputs)?;
                            rep.configs += 1;
                            rep.grants += g;
                            rep.max_rounds = rep.max_rounds.max(r);
                        }
                    }
                }
            }
        }
    }
    Ok(rep)
}

/// Wide sweep over the full turn-model alphabet (17^5 single-slot rows) —
/// heavyweight; run with `cargo test --release -- --ignored`.
pub fn check_unified_wide_exhaustive() -> Result<CheckerReport, CheckError> {
    let alpha = turn_model_alphabet();
    let chunks: Vec<Result<CheckerReport, CheckError>> = alpha
        .par_iter()
        .map(|&a| {
            let alpha = turn_model_alphabet();
            let mut rep = CheckerReport::default();
            for &b in &alpha {
                for &c in &alpha {
                    for &d in &alpha {
                        for &e in &alpha {
                            let inputs = vec![
                                InputRequests {
                                    slots: [slot(a, 5), None],
                                },
                                InputRequests {
                                    slots: [slot(b, 4), None],
                                },
                                InputRequests {
                                    slots: [slot(c, 3), None],
                                },
                                InputRequests {
                                    slots: [slot(d, 2), None],
                                },
                                InputRequests {
                                    slots: [slot(e, 1), None],
                                },
                            ];
                            let (g, r) = check_unified_matrix(&inputs)?;
                            rep.configs += 1;
                            rep.grants += g;
                            rep.max_rounds = rep.max_rounds.max(r);
                        }
                    }
                }
            }
            Ok(rep)
        })
        .collect();
    merge_reports(chunks)
}

// ---------------------------------------------------------------------------
// Buffered-4/8 separable VC allocation (`noc_core::arbiter`)
// ---------------------------------------------------------------------------

/// A rotating-priority arbiter over `n` requesters as a modulo scan from
/// `ptr`: the reference [`rotating_pick`] must equal.
pub fn reference_rotating_pick(requests: u8, ptr: usize, n: usize) -> Option<usize> {
    (0..n)
        .map(|k| (ptr + k) % n)
        .find(|&i| requests & (1 << i) != 0)
}

/// [`rotating_pick`] equals the modulo scan for every request vector of 1
/// to 5 requesters under every pointer.
pub fn check_rotating_pick_exhaustive() -> Result<CheckerReport, CheckError> {
    let mut rep = CheckerReport {
        max_rounds: 1,
        ..Default::default()
    };
    for n in 1..=5usize {
        for requests in 0..(1u8 << n) {
            for ptr in 0..n {
                let got = rotating_pick(requests, ptr as u8).map(usize::from);
                let want = reference_rotating_pick(requests, ptr, n);
                if got != want {
                    return Err(CheckError {
                        config: format!("rotating pick of {requests:05b} from {ptr} in {n}"),
                        reason: format!("picked {got:?}, the modulo scan {want:?}"),
                    });
                }
                rep.configs += 1;
                rep.grants += u64::from(got.is_some());
            }
        }
    }
    Ok(rep)
}

/// One router-cycle of the buffered baselines' switch allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferedCase {
    /// VCs per input (1 = Buffered-4, 2 = Buffered-8).
    pub num_vcs: usize,
    /// `heads[input][vc]`: the usable route mask of a head that may leave
    /// this cycle, `None` for an empty VC or a head not yet ready.
    pub heads: [[Option<u8>; 2]; 5],
    /// Credits per link output and downstream VC.
    pub credits: [[u32; 2]; 4],
    /// Dead link outputs.
    pub down: [bool; 4],
    /// VC-nomination pointer per input.
    pub rr_vc: [usize; 5],
    /// Grant pointer per output.
    pub rr_out: [usize; 5],
    /// Downstream-VC pointer per link output.
    pub rr_dvc: [usize; 4],
}

/// A buffered grant: input, VC, output, downstream VC (links only).
pub type BufferedGrant = (usize, usize, usize, Option<usize>);

/// The buffered router's downstream-VC pick as a modulo scan.
fn reference_downstream_vc(case: &BufferedCase, dir: usize) -> Option<usize> {
    if case.down[dir] {
        return Some(0);
    }
    let n = case.num_vcs;
    (0..n)
        .map(|k| (case.rr_dvc[dir] + k) % n)
        .find(|&vc| case.credits[dir][vc] > 0)
}

/// Reference copy of the Buffered-4/8 allocation as scans with modulo
/// pointers: nominations, output arbiters, the lowest granted output, the
/// downstream-VC pick and every pointer update. Advances `case`'s pointers.
pub fn reference_buffered_allocate(case: &mut BufferedCase) -> Vec<BufferedGrant> {
    let n = case.num_vcs;
    // Stage 1: speculative nominations.
    let mut nominee: [Option<(usize, u8)>; 5] = [None; 5];
    #[allow(clippy::needless_range_loop)] // rotating-pointer iteration
    for input in 0..5 {
        for k in 0..n {
            let vc = (case.rr_vc[input] + k) % n;
            let Some(route) = case.heads[input][vc] else {
                continue;
            };
            let mut mask = 0u8;
            for dir in 0..5 {
                if route & (1 << dir) != 0
                    && (dir == 4 || reference_downstream_vc(case, dir).is_some())
                {
                    mask |= 1 << dir;
                }
            }
            nominee[input] = Some((vc, mask));
            if mask == 0 {
                case.rr_vc[input] = (vc + 1) % n;
            }
            break;
        }
    }
    // Stage 2: output arbiters.
    let mut out_winner = [None; 5];
    for (o, winner) in out_winner.iter_mut().enumerate() {
        for k in 0..5 {
            let input = (case.rr_out[o] + k) % 5;
            if nominee[input].is_some_and(|(_, mask)| mask & (1 << o) != 0) {
                *winner = Some(input);
                case.rr_out[o] = (input + 1) % 5;
                break;
            }
        }
    }
    // Stage 3: each granted nominee takes its first granted output.
    let mut grants = Vec::new();
    for (input, nominee) in nominee.iter().enumerate() {
        let Some((vc, _)) = *nominee else {
            continue;
        };
        if let Some(dir) = (0..5).find(|&d| out_winner[d] == Some(input)) {
            let dvc = if dir == 4 {
                None
            } else {
                reference_downstream_vc(case, dir)
            };
            grants.push((input, vc, dir, dvc));
            case.rr_vc[input] = (vc + 1) % n;
        }
    }
    // Switch traversal: a live link moves its downstream-VC pointer.
    for &(_, _, dir, dvc) in &grants {
        if let Some(dvc) = dvc.filter(|_| !case.down[dir]) {
            case.rr_dvc[dir] = (dvc + 1) % n;
        }
    }
    grants
}

/// Check one case: [`VcAllocator::allocate`] makes the reference's grants
/// and leaves the reference's pointers. Returns the number of grants.
pub fn check_buffered_case(case: &BufferedCase) -> Result<u64, CheckError> {
    let n = case.num_vcs;
    let mut alloc = VcAllocator::with_pointers(
        n,
        case.rr_vc.map(|x| x as u8),
        case.rr_out.map(|x| x as u8),
        case.rr_dvc.map(|x| x as u8),
    );
    let mut ready = [0u8; 5];
    for (bits, heads) in ready.iter_mut().zip(&case.heads) {
        for (vc, head) in heads.iter().enumerate().take(n) {
            *bits |= u8::from(head.is_some()) << vc;
        }
    }
    let mut credited = [0u8; 4];
    let mut dead = 0u8;
    for (d, bits) in credited.iter_mut().enumerate() {
        for vc in 0..n {
            *bits |= u8::from(case.credits[d][vc] > 0) << vc;
        }
        dead |= u8::from(case.down[d]) << d;
    }
    let grants: Vec<BufferedGrant> = alloc
        .allocate(&ready, &credited, dead, |i, vc| {
            case.heads[i][vc].unwrap_or(0)
        })
        .iter()
        .map(|g| {
            let output = g.output as usize;
            let dvc = (output < 4).then_some(g.out_vc as usize);
            (g.input as usize, g.vc as usize, output, dvc)
        })
        .collect();
    let mut reference = case.clone();
    let want = reference_buffered_allocate(&mut reference);
    let err = |reason: String| CheckError {
        config: format!("{case:?}"),
        reason,
    };
    if grants != want {
        return Err(err(format!("grants {grants:?}, reference {want:?}")));
    }
    let pointers = alloc.pointers();
    let expected = (
        reference.rr_vc.map(|p| p as u8),
        reference.rr_out.map(|p| p as u8),
        reference.rr_dvc.map(|p| p as u8),
    );
    if pointers != expected {
        return Err(err(format!(
            "pointers {pointers:?}, reference {expected:?}"
        )));
    }
    Ok(grants.len() as u64)
}

/// SplitMix64: a fixed, seedless stream of credit, dead-link and pointer
/// states for the buffered enumeration.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exhaust every assignment of `alphabet` to the `5 × num_vcs` VC heads.
/// Each head configuration runs under `passes` states of the other axes —
/// per link output a credit pattern over its VCs or a dead link, and every
/// pointer — drawn from a fixed hash of its index, so each state of those
/// axes recurs throughout the space.
pub fn check_buffered_space(
    num_vcs: usize,
    alphabet: &[Option<u8>],
    passes: u64,
) -> Result<CheckerReport, CheckError> {
    let slots = 5 * num_vcs as u32;
    let radix = alphabet.len() as u64;
    let total = radix.pow(slots);
    let chunk = radix.pow(slots - 1);
    let chunks: Vec<Result<CheckerReport, CheckError>> = (0..radix)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|&first| {
            let mut rep = CheckerReport {
                max_rounds: 1,
                ..Default::default()
            };
            for index in first * chunk..(first + 1) * chunk {
                let mut heads = [[None; 2]; 5];
                let mut rest = index;
                for slot in 0..slots as usize {
                    heads[slot / num_vcs][slot % num_vcs] = alphabet[(rest % radix) as usize];
                    rest /= radix;
                }
                for pass in 0..passes {
                    let mut h = mix(index * passes + pass);
                    let mut draw = |n: u64| {
                        let v = h % n;
                        h /= n;
                        v as usize
                    };
                    let mut case = BufferedCase {
                        num_vcs,
                        heads,
                        credits: [[0; 2]; 4],
                        down: [false; 4],
                        rr_vc: [0; 5],
                        rr_out: [0; 5],
                        rr_dvc: [0; 4],
                    };
                    for d in 0..4 {
                        // A credit pattern over the VCs, or (one state in
                        // `1 + 2^num_vcs`) a dead link.
                        let state = draw(1 + (1 << num_vcs));
                        case.down[d] = state == 1 << num_vcs;
                        for vc in 0..num_vcs {
                            case.credits[d][vc] = ((state >> vc) & 1) as u32;
                        }
                        case.rr_dvc[d] = draw(num_vcs as u64);
                    }
                    for i in 0..5 {
                        case.rr_vc[i] = draw(num_vcs as u64);
                        case.rr_out[i] = draw(5);
                    }
                    rep.grants += check_buffered_case(&case)?;
                    rep.configs += 1;
                }
            }
            Ok(rep)
        })
        .collect();
    let rep = merge_reports(chunks)?;
    debug_assert_eq!(rep.configs, total * passes);
    Ok(rep)
}

/// Buffered-4 head states: empty or not ready, or ready with any mask of
/// the turn-model alphabet.
pub fn buffered4_alphabet() -> Vec<Option<u8>> {
    std::iter::once(None)
        .chain(turn_model_alphabet().into_iter().map(Some))
        .collect()
}

/// Buffered-8 head states for the quick sweep: empty, ejection, one link,
/// two links.
pub const BUFFERED8_QUICK: [Option<u8>; 4] = [None, Some(0b1_0000), Some(0b0_0010), Some(0b0_0110)];

/// Buffered-8 head states for the full sweep: the quick four plus the
/// credit-starved empty mask and the other diagonal.
pub const BUFFERED8_FULL: [Option<u8>; 6] = [
    None,
    Some(0),
    Some(0b1_0000),
    Some(0b0_0010),
    Some(0b0_0110),
    Some(0b0_1001),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_single_request_granted() {
        assert_eq!(
            check_greedy_matrix(&[0b00100, 0, 0, 0], &UNIT_CREDITS),
            Ok(1)
        );
    }

    #[test]
    fn greedy_conflict_older_wins() {
        let g = greedy_allocate(&[0b00010, 0b00010], &UNIT_CREDITS);
        assert_eq!(g, vec![Some(1), None]);
    }

    #[test]
    fn greedy_prefers_ejection() {
        let g = greedy_allocate(&[0b10010], &UNIT_CREDITS);
        assert_eq!(g, vec![Some(4)]);
    }

    #[test]
    fn greedy_respects_credits() {
        let g = greedy_allocate(&[0b00010], &[1, 0, 1, 1]);
        assert_eq!(g, vec![None]);
    }

    #[test]
    fn turn_model_alphabet_has_17_masks() {
        let a = turn_model_alphabet();
        assert_eq!(a.len(), 17);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 17);
    }

    #[test]
    fn reference_matches_on_fig4b() {
        // I0 -> O2 and I0' -> O3 simultaneously (paper Fig. 4(b)).
        let inputs = vec![InputRequests {
            slots: [slot(0b00100, 10), slot(0b01000, 5)],
        }];
        let (g, _) = check_unified_matrix(&inputs).unwrap();
        assert_eq!(g, 2);
    }

    #[test]
    fn saturate_reports_rounds() {
        // Both inputs request {O1, O2}; the older wins both output arbiters
        // in round 1 and its V:1 keeps only O1, so the second allocation
        // iteration rescues the younger flit onto the still-free O2.
        let inputs = vec![
            InputRequests {
                slots: [slot(0b00110, 9), None],
            },
            InputRequests {
                slots: [slot(0b00110, 1), None],
            },
        ];
        let rounds = saturate(&inputs).unwrap();
        assert_eq!(rounds, 2, "second iteration must serve the loser");
        let (g, r) = check_unified_matrix(&inputs).unwrap();
        assert_eq!(g, 1, "round 1 of a separable allocator grants one here");
        assert_eq!(r, 2);
    }

    #[test]
    fn separable_allocator_may_strand_a_loser() {
        // Input 1's only requested output goes to the older input 0, which
        // had an alternative. A maximum matching would serve both; the
        // separable allocator legally serves one — work conservation still
        // holds because O1 is not free.
        let inputs = vec![
            InputRequests {
                slots: [slot(0b00110, 9), None],
            },
            InputRequests {
                slots: [slot(0b00010, 1), None],
            },
        ];
        let (g, _) = check_unified_matrix(&inputs).unwrap();
        assert_eq!(g, 1);
    }

    // ------------------------------------------------------------------
    // Exhaustive enumerations (the micro-model-checker proper)
    // ------------------------------------------------------------------

    #[test]
    fn primary_4x5_full_request_space() {
        let rep = check_primary_exhaustive().unwrap();
        assert_eq!(rep.configs, 2 * 32 * 32 * 32 * 32);
        assert!(rep.grants > 0);
    }

    #[test]
    fn secondary_5x5_turn_model_space() {
        let rep = check_secondary_alphabet().unwrap();
        assert_eq!(rep.configs, 17u64.pow(5));
        assert!(rep.grants > 0);
    }

    #[test]
    #[ignore = "33.5M configs; run with --release (CI verify-smoke does)"]
    fn secondary_5x5_full_request_space() {
        let rep = check_secondary_exhaustive().unwrap();
        assert_eq!(rep.configs, 32u64.pow(5));
    }

    #[test]
    fn unified_serial_arbiters_full_space() {
        let rep = check_serial_arbiters_exhaustive().unwrap();
        assert_eq!(rep.configs, 3 * 32 * 32);
        assert!(rep.grants > 0);
    }

    #[test]
    fn unified_pairs_full_mask_space() {
        let rep = check_unified_pairs_exhaustive().unwrap();
        assert_eq!(rep.configs, 32u64.pow(4));
        assert!(
            rep.max_rounds <= 3,
            "fixpoint depth grew: {}",
            rep.max_rounds
        );
    }

    #[test]
    fn unified_wide_sweep_competes_all_rows() {
        let rep = check_unified_wide_sweep().unwrap();
        assert_eq!(rep.configs, 5 * 9u64.pow(5));
    }

    #[test]
    #[ignore = "17^4 x 24 orders; run with --release (CI verify-smoke does)"]
    fn unified_pair_all_priority_orders() {
        let rep = check_unified_pair_orders().unwrap();
        assert_eq!(rep.configs, 17u64.pow(4) * 24);
    }

    #[test]
    #[ignore = "17^5 full alphabet; run with --release (CI verify-smoke does)"]
    fn unified_wide_full_alphabet() {
        let rep = check_unified_wide_exhaustive().unwrap();
        assert_eq!(rep.configs, 17u64.pow(5));
    }

    #[test]
    fn rotating_pick_equals_the_modulo_scan() {
        let rep = check_rotating_pick_exhaustive().unwrap();
        assert_eq!(rep.configs, (1..=5u64).map(|n| n << n).sum::<u64>());
    }

    #[test]
    fn buffered4_turn_model_space() {
        let rep = check_buffered_space(1, &buffered4_alphabet(), 1).unwrap();
        assert_eq!(rep.configs, 18u64.pow(5));
        assert!(rep.grants > 0);
    }

    #[test]
    fn buffered8_quick_space() {
        let rep = check_buffered_space(2, &BUFFERED8_QUICK, 1).unwrap();
        assert_eq!(rep.configs, 4u64.pow(10));
        assert!(rep.grants > 0);
    }

    #[test]
    #[ignore = "18^5 x 16 states; run with --release (CI verify-smoke does)"]
    fn buffered4_turn_model_space_many_states() {
        let rep = check_buffered_space(1, &buffered4_alphabet(), 16).unwrap();
        assert_eq!(rep.configs, 18u64.pow(5) * 16);
    }

    #[test]
    #[ignore = "6^10 head configurations; run with --release (CI verify-smoke does)"]
    fn buffered8_full_space() {
        let rep = check_buffered_space(2, &BUFFERED8_FULL, 1).unwrap();
        assert_eq!(rep.configs, 6u64.pow(10));
    }

    #[test]
    fn buffered_reference_alternates_two_contenders() {
        // Inputs 0 and 1 want East; the output pointer alternates them.
        let mut case = BufferedCase {
            num_vcs: 1,
            heads: [
                [Some(0b0_0010), None],
                [Some(0b0_0010), None],
                [None; 2],
                [None; 2],
                [None; 2],
            ],
            credits: [[1, 0]; 4],
            down: [false; 4],
            rr_vc: [0; 5],
            rr_out: [0; 5],
            rr_dvc: [0; 4],
        };
        assert_eq!(check_buffered_case(&case), Ok(1));
        assert_eq!(
            reference_buffered_allocate(&mut case),
            vec![(0, 0, 1, Some(0))]
        );
        assert_eq!(
            reference_buffered_allocate(&mut case),
            vec![(1, 0, 1, Some(0))]
        );
    }

    // ------------------------------------------------------------------
    // Mutation canaries: deliberately broken allocators must be caught.
    // ------------------------------------------------------------------

    /// The router's round with the serial-arbiter comparison flipped: the
    /// second V:1 arbiter forgets to mask the first winner's output.
    fn mutant_unmasked_second(inputs: &[InputRequests<u32>]) -> Vec<Grant> {
        let mut grants = Rounds::new(inputs).next_round();
        // Re-introduce the bug after the fact: retarget every second grant
        // of a row onto the first grant's output when the flit requested
        // it — exactly what the missing `& !(1 << o1)` mask would allow.
        let firsts: Vec<Grant> = grants
            .iter()
            .copied()
            .filter(|g| {
                grants
                    .iter()
                    .filter(|h| h.input == g.input)
                    .map(|h| h.v)
                    .min()
                    == Some(g.v)
            })
            .collect();
        for g in grants.iter_mut() {
            if let Some(f) = firsts.iter().find(|f| f.input == g.input) {
                if g.v != f.v {
                    let (mask, _) = inputs[g.input].slots[g.v].unwrap();
                    if mask & (1 << f.output) != 0 {
                        g.output = f.output;
                    }
                }
            }
        }
        grants
    }

    #[test]
    fn canary_unmasked_second_arbiter_is_caught() {
        // Both flits of one row want output 1; the healthy allocator gives
        // the second flit nothing (or another output) — the mutant
        // double-drives output 1 and the structural check must fire.
        let inputs = vec![InputRequests {
            slots: [slot(0b00010, 9), slot(0b00110, 5)],
        }];
        let grants = mutant_unmasked_second(&inputs);
        let caught = check_grant_structure(&inputs, &grants).is_err();
        assert!(caught, "mutant slipped past the checker: {grants:?}");
    }

    /// Greedy allocation with the availability comparison flipped: the
    /// output-busy check is ignored.
    fn mutant_greedy_ignore_used(masks: &[u8]) -> Vec<Option<usize>> {
        masks
            .iter()
            .map(|&m| {
                if m == 0 {
                    return None;
                }
                // out_used pinned to all-free: the mutated comparison.
                best_output(PortSet(m), &[false; 5], &UNIT_CREDITS, |_| 0).map(|d| d.index())
            })
            .collect()
    }

    #[test]
    fn canary_greedy_double_grant_is_caught() {
        let masks = [0b00010u8, 0b00010];
        let grants = mutant_greedy_ignore_used(&masks);
        assert_eq!(grants, vec![Some(1), Some(1)], "mutant double-grants");
        // The healthy matrix check (which recomputes correctly) passes, so
        // validate the grant set the way the checker validates structures:
        let mut used = [false; 5];
        let mut caught = false;
        for g in grants.iter().flatten() {
            if used[*g] {
                caught = true;
            }
            used[*g] = true;
        }
        assert!(caught, "output exclusivity violation must be detected");
    }

    /// Conflict detection with the comparison flipped (`<` for `>`).
    fn mutant_resolve_inverted(sel: RowSelection) -> (usize, usize, bool) {
        let swapped = sel.bufferless_out < sel.buffered_out; // mutated
        let (low, high) = if swapped {
            (sel.buffered_out, sel.bufferless_out)
        } else {
            (sel.bufferless_out, sel.buffered_out)
        };
        (low, high, swapped)
    }

    #[test]
    fn canary_inverted_swap_is_caught() {
        // bufferless col 4, buffered col 2: must swap; the mutant doesn't
        // and leaves the entry points inverted.
        let (low, high, _) = mutant_resolve_inverted(RowSelection {
            bufferless_out: 4,
            buffered_out: 2,
        });
        assert!(
            low >= high,
            "mutant should produce an illegal row for this input"
        );
        // The real checker on the real resolve() never does:
        let inputs = vec![InputRequests {
            slots: [slot(0b10000, 9), slot(0b00100, 5)],
        }];
        let grants = Rounds::new(&inputs).next_round();
        check_swap_logic(&inputs, &grants).unwrap();
    }
}
