//! Generic input-buffered VC router — the paper's "Buffered 4" and
//! "Buffered 8" baselines.
//!
//! Micro-architecture (Fig. 2(c) of the paper — the 3-stage speculative
//! pipeline): a flit arriving in cycle `t` performs buffer write + (look-
//! ahead) route computation in `t`, may win speculative VA+SA and traverse
//! the switch in `t+1` at the earliest, and spends the next cycle on the
//! link. Credit-based flow control; one flit may leave per input port per
//! cycle and one may enter per output port per cycle.
//!
//! * **Buffered 4**: one 4-flit FIFO per input (head-of-line blocking).
//! * **Buffered 8**: two 4-flit FIFOs (VCs) per input; both heads compete
//!   in switch allocation, removing HoL blocking ("the split design
//!   resembles DXbar only at the buffering and provides for a fair
//!   comparison by removing Head-of-Line blocking").

use noc_core::arbiter::VcAllocator;
use noc_core::queue::FixedQueue;
use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_routing::{usable_route, Algorithm};
use noc_sim::datapath::Parked;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::ProbeEvent;
use noc_topology::Mesh;

/// Which buffered baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferedVariant {
    /// 1 VC x `depth` flits per input.
    Buffered4,
    /// 2 VCs x `depth` flits per input.
    Buffered8,
}

impl BufferedVariant {
    pub fn num_vcs(self) -> usize {
        match self {
            BufferedVariant::Buffered4 => 1,
            BufferedVariant::Buffered8 => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            BufferedVariant::Buffered4 => "Buffered 4",
            BufferedVariant::Buffered8 => "Buffered 8",
        }
    }
}

/// One virtual channel: a FIFO of waiting flits, each ready for switch
/// allocation the cycle after arrival (the RC stage of the 3-stage
/// pipeline).
type Vc = FixedQueue<Parked>;

/// Inputs: 4 link ports + 1 injection port (index 4).
const NUM_INPUTS: usize = 5;

/// The generic VC-buffered router.
pub struct BufferedRouter {
    node: NodeId,
    mesh: Mesh,
    variant: BufferedVariant,
    algorithm: Algorithm,
    depth: usize,
    /// `vcs[input][vc]`.
    vcs: Vec<Vec<Vc>>,
    /// Credits for each downstream VC: `credits[out_dir][vc]`.
    credits: [[u32; 2]; 4],
    /// The switch allocator's rotating-priority pointers.
    alloc: VcAllocator,
    /// Dead output links, published by the engine's resilience layer.
    link_down: [bool; NUM_LINK_PORTS],
}

impl BufferedRouter {
    pub fn new(
        node: NodeId,
        mesh: Mesh,
        variant: BufferedVariant,
        algorithm: Algorithm,
        depth: usize,
    ) -> BufferedRouter {
        let num_vcs = variant.num_vcs();
        let vcs = (0..NUM_INPUTS)
            .map(|_| (0..num_vcs).map(|_| FixedQueue::new(depth)).collect())
            .collect();
        let mut credits = [[0u32; 2]; 4];
        for d in LINK_DIRECTIONS {
            if mesh.neighbor(node, d).is_some() {
                for c in credits[d.index()].iter_mut().take(num_vcs) {
                    *c = depth as u32;
                }
            }
        }
        BufferedRouter {
            node,
            mesh,
            variant,
            algorithm,
            depth,
            vcs,
            credits,
            alloc: VcAllocator::new(num_vcs),
            link_down: [false; NUM_LINK_PORTS],
        }
    }

    fn num_vcs(&self) -> usize {
        self.variant.num_vcs()
    }

    /// Encode a credit return as `(vc << 8) | count` (the engine transports
    /// an opaque u32; both ends of a link run the same design).
    fn encode_credit(vc: usize) -> u32 {
        ((vc as u32) << 8) | 1
    }

    fn decode_credit(raw: u32) -> (usize, u32) {
        ((raw >> 8) as usize, raw & 0xFF)
    }
}

impl RouterModel for BufferedRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        let t = ctx.cycle;
        let num_vcs = self.num_vcs();

        // --- Buffer write (BW): arrivals land in the VC the upstream
        // router assigned; earliest SA attempt is next cycle (RC stage).
        for d in LINK_DIRECTIONS {
            if let Some(flit) = ctx.arrivals[d.index()].take() {
                let vc = (flit.vc as usize).min(num_vcs - 1);
                // Unreachable while both ends keep the credit protocol: the
                // upstream router sends on a VC only with a credit for it,
                // and each credit stands for one free slot of this FIFO.
                ctx.park(self.node, &mut self.vcs[d.index()][vc], flit)
                    .unwrap_or_else(|f| {
                        panic!(
                            "credit violation: input {d} vc {vc} overflow at {} (flit {:?})",
                            self.node, f.packet
                        )
                    });
            }
        }

        // Injection port: accept when its VC 0 has room (the PE-side buffer).
        if let Some(flit) = ctx.injection {
            ctx.injected = ctx.park(self.node, &mut self.vcs[4][0], flit).is_ok();
        }

        // --- Speculative separable switch allocation (the VA+SA/ST stage of
        // the 3-stage pipeline). Realistic hardware structure, with its
        // realistic throughput loss (`VcAllocator` has the three stages):
        //
        // 1. each input port nominates ONE ready VC (round-robin), before
        //    credit state is consulted — that is what "speculative VA+SA"
        //    buys the 3-stage pipeline, and what it costs: a nominee whose
        //    credit-backed route is empty wastes its input's cycle;
        // 2. each output port's P:1 arbiter independently grants one
        //    nominating input (rotating priority);
        // 3. a nominee granted several outputs uses one; the other grants
        //    are wasted for this cycle, exactly as in a single-iteration
        //    separable allocator. Downstream VCs are assigned round-robin
        //    among those with credits (simple routers assign VCs blindly
        //    rather than by occupancy).
        let mut ready = [0u8; NUM_INPUTS];
        for (bits, vcs) in ready.iter_mut().zip(&self.vcs) {
            for (vc, q) in vcs.iter().enumerate() {
                if q.front().is_some_and(|head| head.ready <= t) {
                    *bits |= 1 << vc;
                }
            }
        }
        let mut credited = [0u8; NUM_LINK_PORTS];
        let mut dead = 0u8;
        for d in LINK_DIRECTIONS {
            let i = d.index();
            for (vc, &c) in self.credits[i].iter().enumerate().take(num_vcs) {
                credited[i] |= u8::from(c > 0) << vc;
            }
            // A dead link cannot backpressure: nothing sent into it
            // occupies a downstream slot, so no credit is required (the
            // engine swallows and accounts the flit).
            dead |= u8::from(self.link_down[i]) << i;
        }
        let (mesh, node, algorithm, link_down) =
            (&self.mesh, self.node, self.algorithm, &self.link_down);
        let vcs = &self.vcs;
        let grants = self.alloc.allocate(&ready, &credited, dead, |input, vc| {
            // Only ready heads are nominated.
            let dst = vcs[input][vc].front().map_or(node, |head| head.flit.dst);
            usable_route(algorithm.route(mesh, node, dst), link_down).0
        });

        // --- Switch traversal (ST) for the winners.
        for g in grants.iter() {
            let (input, vc) = (g.input as usize, g.vc as usize);
            // A grant goes only to a nominated VC, and only a VC with a
            // ready head is nominated.
            let mut flit = ctx
                .unpark(self.node, &mut self.vcs[input][vc])
                .expect("granted head exists");
            ctx.events.xbar_traversals += 1;
            ctx.probe.emit(|| ProbeEvent::Grant {
                input: g.input,
                slot: g.vc,
                output: g.output,
            });
            if input < 4 {
                // Return the freed slot's credit upstream, tagged with the VC.
                debug_assert_eq!(ctx.credits_out[input], 0, "one grant per input");
                ctx.credits_out[input] = Self::encode_credit(vc);
            }
            match Direction::from_index(g.output as usize) {
                Direction::Local => ctx.ejected.push(flit),
                d => {
                    if !self.link_down[d.index()] {
                        self.credits[d.index()][g.out_vc as usize] -= 1;
                    }
                    flit.vc = g.out_vc;
                    ctx.out_links[d.index()] = Some(flit);
                }
            }
        }

        // --- Credit returns from downstream.
        for d in LINK_DIRECTIONS {
            let raw = ctx.credits_in[d.index()];
            if raw != 0 {
                let (vc, count) = Self::decode_credit(raw);
                let c = &mut self.credits[d.index()][vc.min(num_vcs - 1)];
                *c += count;
                debug_assert!(*c <= self.depth as u32, "credit overflow on {d}");
            }
        }

        if ctx.probe.is_enabled() {
            for (input, vcs) in self.vcs.iter().enumerate() {
                for (vc, q) in vcs.iter().enumerate() {
                    // `input` field encodes (input port, VC) as port<<4 | vc.
                    ctx.probe.emit(|| ProbeEvent::FifoDepth {
                        input: ((input as u8) << 4) | vc as u8,
                        depth: q.len() as u16,
                    });
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.vcs.iter().flatten().all(|vc| vc.is_empty())
    }

    fn occupancy(&self) -> usize {
        self.vcs.iter().flatten().map(|vc| vc.len()).sum()
    }

    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        self.link_down = down;
    }

    fn design_name(&self) -> &'static str {
        self.variant.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::{Flit, PacketId};

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn router(variant: BufferedVariant) -> BufferedRouter {
        BufferedRouter::new(NodeId(5), mesh(), variant, Algorithm::Dor, 4)
    }

    fn flit_to(dst: u16, created: u64) -> Flit {
        Flit::synthetic(PacketId(created), NodeId(1), NodeId(dst), created)
    }

    #[test]
    fn three_stage_pipeline_delays_first_sa() {
        let mut r = router(BufferedVariant::Buffered4);
        // Node 5 = (1,1); dst 7 = (3,1): route East.
        let mut ctx = StepCtx::new(10);
        ctx.arrivals[Direction::West.index()] = Some(flit_to(7, 0));
        r.step(&mut ctx);
        // Arrived at t=10: BW+RC this cycle, no ST yet.
        assert!(ctx.out_links.iter().all(|o| o.is_none()));
        assert_eq!(ctx.events.buffer_writes, 1);
        assert_eq!(r.occupancy(), 1);
        // t=11: SA+ST.
        let mut ctx = StepCtx::new(11);
        r.step(&mut ctx);
        let out = ctx.out_links[Direction::East.index()].expect("switched East");
        assert_eq!(out.dst, NodeId(7));
        assert_eq!(ctx.events.buffer_reads, 1);
        assert_eq!(ctx.events.xbar_traversals, 1);
        // Credit returned upstream on the West input.
        assert_eq!(ctx.credits_out[Direction::West.index()], 1);
        assert!(r.is_idle());
    }

    #[test]
    fn ejects_at_destination() {
        let mut r = router(BufferedVariant::Buffered4);
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::North.index()] = Some(flit_to(5, 0));
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(1);
        r.step(&mut ctx);
        assert_eq!(ctx.ejected.len(), 1);
        assert_eq!(ctx.ejected[0].dst, NodeId(5));
    }

    #[test]
    fn injection_accepted_until_buffer_full() {
        let mut r = router(BufferedVariant::Buffered4);
        // Fill the injection VC without ever granting (no SA in cycle of BW,
        // and we keep offering in the same cycle... offer over 4 cycles but
        // block the East output by filling credits with a competing stream).
        for i in 0..4u64 {
            let mut ctx = StepCtx::new(0); // same cycle: heads never ready
            ctx.injection = Some(flit_to(7, i));
            r.step(&mut ctx);
            assert!(ctx.injected, "slot {i} should fit");
        }
        let mut ctx = StepCtx::new(0);
        ctx.injection = Some(flit_to(7, 99));
        r.step(&mut ctx);
        assert!(!ctx.injected, "5th flit must be refused");
        assert_eq!(r.occupancy(), 4);
    }

    #[test]
    fn credits_block_sends_when_downstream_full() {
        let mut r = router(BufferedVariant::Buffered4);
        // Drain all 4 credits for East by sending 4 flits.
        for i in 0..4u64 {
            let mut ctx = StepCtx::new(i * 2);
            ctx.arrivals[Direction::West.index()] = Some(flit_to(7, i));
            r.step(&mut ctx);
            let mut ctx = StepCtx::new(i * 2 + 1);
            r.step(&mut ctx);
            assert!(ctx.out_links[Direction::East.index()].is_some(), "send {i}");
        }
        // Fifth flit: no credits left -> stays buffered.
        let mut ctx = StepCtx::new(100);
        ctx.arrivals[Direction::West.index()] = Some(flit_to(7, 50));
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(101);
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_none());
        assert_eq!(r.occupancy(), 1);
        // Returning one credit unblocks it.
        let mut ctx = StepCtx::new(102);
        ctx.credits_in[Direction::East.index()] = BufferedRouter::encode_credit(0);
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(103);
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
    }

    #[test]
    fn buffered8_breaks_hol_blocking() {
        // Two flits in the same input: head wants East (blocked), second
        // wants South (free). With 2 VCs the second must still progress.
        let mut r = router(BufferedVariant::Buffered8);
        // Kill East credits.
        r.credits[Direction::East.index()] = [0, 0];
        // Upstream tags: flit 0 -> vc0 (East-bound), flit 1 -> vc1
        // (South-bound, dst 13 = (1,3)).
        let mut east_bound = flit_to(7, 0);
        east_bound.vc = 0;
        let mut south_bound = flit_to(13, 1);
        south_bound.vc = 1;
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(east_bound);
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(1);
        ctx.arrivals[Direction::West.index()] = Some(south_bound);
        r.step(&mut ctx);
        // The speculative round-robin nomination may burn one cycle on the
        // blocked VC0 head, but within two cycles the VC1 head must bypass
        // it — this is what Buffered 4 can never do.
        let mut south_at = None;
        for t in 2..=3u64 {
            let mut ctx = StepCtx::new(t);
            r.step(&mut ctx);
            assert!(ctx.out_links[Direction::East.index()].is_none());
            if ctx.out_links[Direction::South.index()].is_some() {
                south_at = Some(t);
                break;
            }
        }
        assert!(
            south_at.is_some(),
            "VC1 head must bypass the blocked VC0 head"
        );
    }

    #[test]
    fn buffered4_suffers_hol_blocking() {
        let mut r = router(BufferedVariant::Buffered4);
        r.credits[Direction::East.index()] = [0, 0];
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit_to(7, 0));
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(1);
        ctx.arrivals[Direction::West.index()] = Some(flit_to(13, 1));
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(2);
        r.step(&mut ctx);
        // Single FIFO: the South-bound flit is stuck behind the blocked head.
        assert!(ctx.out_links[Direction::South.index()].is_none());
        assert_eq!(r.occupancy(), 2);
    }

    #[test]
    fn one_grant_per_output_port() {
        let mut r = router(BufferedVariant::Buffered4);
        // Two inputs, both East-bound.
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit_to(7, 0));
        ctx.arrivals[Direction::North.index()] = Some(flit_to(7, 1));
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(1);
        r.step(&mut ctx);
        // Exactly one may traverse.
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert_eq!(r.occupancy(), 1);
    }

    #[test]
    fn credit_encoding_roundtrip() {
        for vc in 0..2usize {
            let raw = BufferedRouter::encode_credit(vc);
            assert_eq!(BufferedRouter::decode_credit(raw), (vc, 1));
        }
    }

    #[test]
    fn design_names() {
        assert_eq!(
            router(BufferedVariant::Buffered4).design_name(),
            "Buffered 4"
        );
        assert_eq!(
            router(BufferedVariant::Buffered8).design_name(),
            "Buffered 8"
        );
    }
}
