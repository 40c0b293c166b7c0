//! Rotating-priority arbitration over request bit vectors.
//!
//! A round-robin arbiter grants the first requester at or after its
//! pointer, wrapping. With the requests held as a bit vector that is a
//! mask and a `trailing_zeros` ([`rotating_pick`]), not a modulo loop.
//! [`VcAllocator`] builds the input-buffered VC router's speculative
//! separable switch allocation (the paper's Buffered-4/8 baselines) from
//! such picks: a per-input VC nomination, one P:1 arbiter per output and
//! a per-output downstream-VC pick.

use crate::inline::InlineVec;
use crate::types::{NUM_LINK_PORTS, NUM_PORTS};

/// The lowest set bit of `requests` at or after bit `ptr`, else the lowest
/// set bit: the grant of a rotating-priority arbiter whose pointer is
/// `ptr`. `None` when nothing requests. `ptr` must be below 8.
#[inline]
pub fn rotating_pick(requests: u8, ptr: u8) -> Option<u8> {
    debug_assert!(ptr < 8);
    let from_ptr = requests & (u8::MAX << ptr);
    let pick = if from_ptr != 0 { from_ptr } else { requests };
    (pick != 0).then(|| pick.trailing_zeros() as u8)
}

/// The pointer after a grant to `i` in a ring of `n`: `(i + 1) % n`.
#[inline]
fn successor(i: u8, n: u8) -> u8 {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// The local (ejection) output's bit in a request mask.
const LOCAL: u8 = 1 << (NUM_PORTS - 1);

/// One switch grant of [`VcAllocator::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcGrant {
    /// Input port (four links, then the injection port).
    pub input: u8,
    /// The input VC whose head leaves.
    pub vc: u8,
    /// Output port index; `NUM_PORTS - 1` is ejection.
    pub output: u8,
    /// Downstream VC the flit takes on a link output (0 on ejection).
    pub out_vc: u8,
}

/// The rotating-priority state of an input-buffered VC router's
/// single-iteration separable switch allocator.
///
/// 1. Each input nominates its first ready VC at or after its VC pointer.
///    The nomination is speculative: it commits before credits are
///    consulted, and a nominee left without a credited output idles its
///    input for the cycle (its pointer moves on).
/// 2. Each output grants the first nominating input at or after its
///    pointer.
/// 3. An input granted several outputs takes the lowest; its other grants
///    are wasted this cycle. A link grant takes the output's first
///    credited downstream VC at or after that output's VC pointer; a dead
///    link needs no credit and always takes VC 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcAllocator {
    num_vcs: u8,
    /// VC-nomination pointer per input.
    rr_vc: [u8; NUM_PORTS],
    /// Grant pointer per output.
    rr_out: [u8; NUM_PORTS],
    /// Downstream-VC pointer per link output.
    rr_dvc: [u8; NUM_LINK_PORTS],
}

impl VcAllocator {
    /// An allocator over `num_vcs` (1..=8) VCs per port, every pointer at 0.
    pub fn new(num_vcs: usize) -> VcAllocator {
        VcAllocator::with_pointers(num_vcs, [0; NUM_PORTS], [0; NUM_PORTS], [0; NUM_LINK_PORTS])
    }

    /// An allocator with explicit pointers `(rr_vc, rr_out, rr_dvc)`, each
    /// below its ring size (`num_vcs`, `NUM_PORTS`, `num_vcs`).
    pub fn with_pointers(
        num_vcs: usize,
        rr_vc: [u8; NUM_PORTS],
        rr_out: [u8; NUM_PORTS],
        rr_dvc: [u8; NUM_LINK_PORTS],
    ) -> VcAllocator {
        assert!((1..=8).contains(&num_vcs), "1..=8 VCs per port");
        let num_vcs = num_vcs as u8;
        assert!(rr_vc.iter().chain(&rr_dvc).all(|&p| p < num_vcs));
        assert!(rr_out.iter().all(|&p| (p as usize) < NUM_PORTS));
        VcAllocator {
            num_vcs,
            rr_vc,
            rr_out,
            rr_dvc,
        }
    }

    /// The pointers `(rr_vc, rr_out, rr_dvc)`.
    pub fn pointers(&self) -> ([u8; NUM_PORTS], [u8; NUM_PORTS], [u8; NUM_LINK_PORTS]) {
        (self.rr_vc, self.rr_out, self.rr_dvc)
    }

    /// Allocate one cycle and advance the pointers.
    ///
    /// * `ready[i]` — bit `v` set when VC `v` of input `i` has a head that
    ///   may leave this cycle;
    /// * `credited[d]` — bit `v` set when downstream VC `v` of link output
    ///   `d` holds a credit;
    /// * `dead` — bit `d` set when link output `d` is dead;
    /// * `route(i, v)` — the output mask the head of VC `v` of input `i`
    ///   requests; called once per nominee.
    ///
    /// Grants come in input order, at most one per input and per output.
    #[inline]
    pub fn allocate(
        &mut self,
        ready: &[u8; NUM_PORTS],
        credited: &[u8; NUM_LINK_PORTS],
        dead: u8,
        mut route: impl FnMut(usize, usize) -> u8,
    ) -> InlineVec<VcGrant, NUM_PORTS> {
        // The downstream VC each link output would take; an output with
        // none is closed to requests. Neither changes while allocating.
        let mut out_vc = [0u8; NUM_LINK_PORTS];
        let mut open = LOCAL;
        for (d, vc) in out_vc.iter_mut().enumerate() {
            let vcs = if dead & (1 << d) != 0 { 1 } else { credited[d] };
            if let Some(v) = rotating_pick(vcs, self.rr_dvc[d]) {
                *vc = v;
                open |= 1 << d;
            }
        }

        // Stage 1: nominations, transposed into one input vector per
        // output.
        let mut nominee = [0u8; NUM_PORTS];
        let mut requests = [0u8; NUM_PORTS];
        for (i, nominee) in nominee.iter_mut().enumerate() {
            let Some(vc) = rotating_pick(ready[i], self.rr_vc[i]) else {
                continue;
            };
            *nominee = vc;
            let mut mask = route(i, vc as usize) & open;
            if mask == 0 {
                self.rr_vc[i] = successor(vc, self.num_vcs);
            }
            while mask != 0 {
                requests[mask.trailing_zeros() as usize] |= 1 << i;
                mask &= mask - 1;
            }
        }

        // Stage 2: one rotating-priority arbiter per output.
        let mut granted = [0u8; NUM_PORTS];
        for (o, &req) in requests.iter().enumerate() {
            if let Some(i) = rotating_pick(req, self.rr_out[o]) {
                granted[i as usize] |= 1 << o;
                self.rr_out[o] = successor(i, NUM_PORTS as u8);
            }
        }

        // Stage 3: each granted input takes its lowest granted output.
        let mut grants = InlineVec::new();
        for (i, &outs) in granted.iter().enumerate() {
            if outs == 0 {
                continue;
            }
            let (o, vc) = (outs.trailing_zeros() as u8, nominee[i]);
            self.rr_vc[i] = successor(vc, self.num_vcs);
            let mut dvc = 0;
            if let Some(&v) = out_vc.get(o as usize) {
                dvc = v;
                if dead & (1 << o) == 0 {
                    self.rr_dvc[o as usize] = successor(v, self.num_vcs);
                }
            }
            // At most one grant per input: capacity NUM_PORTS holds them.
            grants.push(VcGrant {
                input: i as u8,
                vc,
                output: o,
                out_vc: dvc,
            });
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotating_pick_wraps_past_the_pointer() {
        assert_eq!(rotating_pick(0b0_0000, 3), None);
        assert_eq!(rotating_pick(0b1_0010, 0), Some(1));
        assert_eq!(rotating_pick(0b1_0010, 2), Some(4));
        assert_eq!(rotating_pick(0b0_0010, 2), Some(1));
        assert_eq!(rotating_pick(0b0_1000, 3), Some(3));
    }

    #[test]
    fn successor_wraps() {
        assert_eq!(successor(0, 1), 0);
        assert_eq!(successor(0, 2), 1);
        assert_eq!(successor(1, 2), 0);
        assert_eq!(successor(4, 5), 0);
    }

    #[test]
    fn two_inputs_one_output_alternate() {
        // Inputs 0 and 1 both want East (bit 1), one VC, credit enough.
        let mut a = VcAllocator::new(1);
        let ready = [1, 1, 0, 0, 0];
        let mut winners = Vec::new();
        for _ in 0..4 {
            let g = a.allocate(&ready, &[1; 4], 0, |_, _| 0b0_0010);
            assert_eq!(g.len(), 1);
            winners.push(g[0].input);
        }
        assert_eq!(winners, vec![0, 1, 0, 1]);
    }

    #[test]
    fn uncredited_nominee_idles_and_moves_its_pointer() {
        let mut a = VcAllocator::new(2);
        // Input 0: both VCs ready; VC 0 wants East (no credit), VC 1 South.
        let ready = [0b11, 0, 0, 0, 0];
        let credited = [0b11, 0b00, 0b11, 0b11];
        let route = |_: usize, vc: usize| if vc == 0 { 0b0_0010 } else { 0b0_0100 };
        assert!(a.allocate(&ready, &credited, 0, route).is_empty());
        let g = a.allocate(&ready, &credited, 0, route);
        assert_eq!((g[0].vc, g[0].output), (1, 2));
    }

    #[test]
    fn dead_link_takes_vc_0_without_credit() {
        let mut a = VcAllocator::with_pointers(2, [0; 5], [0; 5], [1; 4]);
        let g = a.allocate(&[1, 0, 0, 0, 0], &[0; 4], 0b0010, |_, _| 0b0_0010);
        assert_eq!((g[0].output, g[0].out_vc), (1, 0));
        assert_eq!(a.pointers().2, [1; 4], "a dead link keeps its pointer");
    }
}
