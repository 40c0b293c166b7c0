//! The unified dual-input single-crossbar router (Section II-B).
//!
//! Functionally the unified design matches the dual crossbar — buffered and
//! bufferless flits of the same input port can reach two different outputs
//! in the same cycle — but it is one 5x5 matrix with transmission-gate
//! segmentation instead of two crossbars, so it occupies ~25 % less area
//! than DXbar at a slightly higher traversal energy (15 pJ vs 13 pJ per
//! flit).
//!
//! Unlike [`crate::router::DXbarRouter`]'s greedy age-ordered allocation,
//! this router runs the paper's actual hardware allocator: the separable
//! output-first allocator with **two serial V:1 arbiters** per input
//! ([`crate::allocator`]), followed by the **conflict-free allocator**
//! ([`crate::conflict_free`]) that swaps the two packets of a row whenever
//! the transmission-gate segmentation would be infeasible. Age-based
//! priority enters through the arbiter priority keys.
//!
//! Fault tolerance is not modelled here; the paper limits its fault study
//! to the dual-crossbar design ("we limit our studies to understand the
//! effect of failure of one crossbar within the router").

use crate::allocator::{allocate_with_into, Grant, InputRequests};
use crate::conflict_free::{resolve, RowSelection};
use crate::fairness::FairnessCounter;
use noc_core::flit::Flit;
use noc_core::inline::InlineVec;
use noc_core::queue::FixedQueue;
use noc_core::types::{Direction, NodeId, ALL_DIRECTIONS, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_routing::{usable_route, Algorithm};
use noc_sim::datapath::Parked;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::verify::ProbeEvent;
use noc_topology::Mesh;
use std::cmp::Reverse;

/// Arbitration priority key: class (1 = prioritized class) then age
/// (older = larger key via `Reverse`). Larger keys win in the allocator.
type Prio = (u8, Reverse<(u64, u64, u8)>);

/// The unified dual-input single-crossbar router.
pub struct UnifiedRouter {
    node: NodeId,
    mesh: Mesh,
    algorithm: Algorithm,
    depth: usize,
    buffers: Vec<FixedQueue<Parked>>,
    /// Cached `route_bits` of each buffered flit, queue-parallel to
    /// `buffers`: routing is a pure function of (node, dst, link_down),
    /// so it is computed once on arrival instead of every cycle the flit
    /// waits at the FIFO front. Rebuilt by `set_faulty_links`.
    buffer_routes: Vec<FixedQueue<u8>>,
    credits: [u32; 4],
    fairness: FairnessCounter,
    /// Conflict-free swaps performed (diagnostics; Fig. 4(c) events).
    swaps: u64,
    /// Dead output links, published by the engine's resilience layer.
    link_down: [bool; NUM_LINK_PORTS],
}

impl UnifiedRouter {
    pub fn new(
        node: NodeId,
        mesh: Mesh,
        algorithm: Algorithm,
        depth: usize,
        fairness_threshold: u32,
    ) -> UnifiedRouter {
        let mut credits = [0u32; 4];
        for d in LINK_DIRECTIONS {
            if mesh.neighbor(node, d).is_some() {
                credits[d.index()] = depth as u32;
            }
        }
        UnifiedRouter {
            node,
            mesh,
            algorithm,
            depth,
            buffers: (0..4).map(|_| FixedQueue::new(depth)).collect(),
            buffer_routes: (0..4).map(|_| FixedQueue::new(depth)).collect(),
            credits,
            fairness: FairnessCounter::new(fairness_threshold),
            swaps: 0,
            link_down: [false; NUM_LINK_PORTS],
        }
    }

    /// Conflict-free allocator swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    fn prio(&self, flit: &Flit, is_incoming: bool) -> Prio {
        let flipped = self.fairness.flipped();
        let class = if is_incoming != flipped { 1 } else { 0 };
        (class, Reverse(flit.age_key()))
    }

    /// Route bits over the 5 outputs for a flit, before credit gating.
    /// Dead output links are pruned while a live productive port remains
    /// (WF reroutes within its minimal choices); if every productive port
    /// is dead the flit requests the dead link anyway — it cannot
    /// backpressure, so no credit is required, and the engine accounts
    /// the loss. Pure in (node, dst, link_down): cacheable per flit.
    fn route_bits(&self, flit: &Flit) -> u8 {
        let route = usable_route(
            self.algorithm.route(&self.mesh, self.node, flit.dst),
            &self.link_down,
        );
        let mut mask = 0u8;
        for dir in ALL_DIRECTIONS {
            if route.contains(dir) {
                mask |= 1 << dir.index();
            }
        }
        mask
    }

    /// Credit gating over (possibly cached) route bits: a live link output
    /// with no credit drops out; dead links stay (see `route_bits`).
    fn gate_credits(&self, bits: u8) -> u8 {
        let mut mask = bits;
        for d in LINK_DIRECTIONS {
            let bit = 1u8 << d.index();
            if mask & bit != 0 && !self.link_down[d.index()] && self.credits[d.index()] == 0 {
                mask &= !bit;
            }
        }
        mask
    }
}

impl RouterModel for UnifiedRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        // Credit returns.
        for d in LINK_DIRECTIONS {
            let c = ctx.credits_in[d.index()];
            if c > 0 {
                self.credits[d.index()] += c;
                debug_assert!(self.credits[d.index()] <= self.depth as u32);
            }
        }

        // Build the request matrix: inputs 0..3 carry (incoming, buffered),
        // input 4 carries the injection flit in slot 0.
        let flipped_at_start = self.fairness.flipped();
        let mut inputs = [InputRequests::<Prio>::default(); 5];
        let mut waiters_exist = false;
        let mut waiter_requested = false;
        // Route bits of this cycle's arrivals, kept for the loser-buffering
        // pass below so a buffered flit's route is computed exactly once.
        let mut arrival_bits = [0u8; 4];
        for d in LINK_DIRECTIONS {
            let i = d.index();
            if let Some(f) = &ctx.arrivals[i] {
                let bits = self.route_bits(f);
                arrival_bits[i] = bits;
                let mask = self.gate_credits(bits);
                if mask != 0 {
                    inputs[i].slots[0] = Some((mask, self.prio(f, true)));
                }
            }
            if let Some(Parked { flit: f, .. }) = self.buffers[i].front() {
                waiters_exist = true;
                let bits = *self.buffer_routes[i].front().expect("route cache in sync");
                let mask = self.gate_credits(bits);
                if mask != 0 {
                    waiter_requested = true;
                    inputs[i].slots[1] = Some((mask, self.prio(f, false)));
                }
            }
        }
        if let Some(f) = &ctx.injection {
            waiters_exist = true;
            let mask = self.gate_credits(self.route_bits(f));
            if mask != 0 {
                waiter_requested = true;
                inputs[4].slots[0] = Some((mask, self.prio(f, false)));
            }
        }

        // Flit lookup for the preference hook below.
        let flit_at = |input: usize, v: usize| -> Option<Flit> {
            match (input, v) {
                (4, 0) => ctx.injection,
                (i, 0) if i < 4 => ctx.arrivals[i],
                (i, 1) if i < 4 => self.buffers[i].front().map(|p| p.flit),
                _ => None,
            }
        };
        // The V:1 arbiters pick among granted outputs with the same
        // congestion-aware preference DXbar uses: ejection first, then most
        // credits, then the longer remaining dimension.
        let choose = |input: usize, v: usize, usable: u8| {
            let local = Direction::Local.index();
            if usable & (1 << local) != 0 {
                return local;
            }
            let flit = flit_at(input, v).expect("granted slot holds a flit");
            (0..5)
                .filter(|&o| usable & (1 << o) != 0)
                .max_by_key(|&o| {
                    let dir = Direction::from_index(o);
                    (
                        self.credits[o],
                        crate::router::remaining_leg(&self.mesh, self.node, flit.dst, dir),
                        std::cmp::Reverse(o),
                    )
                })
                .expect("usable mask is non-empty")
        };
        // At most one grant per output: <= 5 per allocation round, and the
        // second round only sees outputs the first left unused.
        let mut grants: InlineVec<Grant, 10> = InlineVec::new();
        allocate_with_into(&inputs, 5, choose, &mut grants);

        // Second allocation iteration: the output-first stage can
        // concentrate several output grants on one input port, stranding
        // other requesters. Re-run the allocator over the flits and outputs
        // left unmatched (standard multi-iteration separable allocation).
        let used_outputs: u8 = grants.iter().fold(0, |m, g| m | (1 << g.output));
        let mut leftovers = inputs;
        for req in leftovers.iter_mut() {
            for slot in req.slots.iter_mut() {
                if let Some((mask, _)) = slot {
                    *mask &= !used_outputs;
                    if *mask == 0 {
                        *slot = None;
                    }
                }
            }
        }
        for g in grants.iter() {
            leftovers[g.input].slots[g.v] = None;
        }
        allocate_with_into(&leftovers, 5, choose, &mut grants);

        // Conflict-free allocator: rows with two grants run the detection +
        // swap logic (the outputs themselves are already legal; the swap
        // only changes which entry point drives which column).
        let mut per_row = [[None::<usize>; 2]; 5];
        for g in grants.iter() {
            per_row[g.input][g.v] = Some(g.output);
        }
        for row in &per_row {
            if let [Some(bufferless_out), Some(buffered_out)] = *row {
                let r = resolve(RowSelection {
                    bufferless_out,
                    buffered_out,
                });
                if r.swapped {
                    self.swaps += 1;
                }
            }
        }

        // Commit grants.
        let mut incoming_won = false;
        let mut waiter_won = false;
        for g in grants.iter() {
            ctx.probe.emit(|| ProbeEvent::Grant {
                input: g.input as u8,
                slot: g.v as u8,
                output: g.output as u8,
            });
        }
        for g in grants.iter() {
            let mut flit = match (g.input, g.v) {
                (4, 0) => {
                    ctx.injected = true;
                    waiter_won = true;
                    ctx.injection.take().expect("injection grant")
                }
                (i, 0) => {
                    incoming_won = true;
                    ctx.credits_out[i] += 1; // bypass: slot never used
                    ctx.arrivals[i].take().expect("incoming grant")
                }
                (i, 1) => {
                    self.buffer_routes[i].pop().expect("route cache in sync");
                    waiter_won = true;
                    ctx.credits_out[i] += 1;
                    ctx.unpark(self.node, &mut self.buffers[i])
                        .expect("buffered grant")
                }
                _ => unreachable!("allocator produced an impossible slot"),
            };
            ctx.events.unified_xbar_traversals += 1;
            let dir = Direction::from_index(g.output);
            match dir {
                Direction::Local => ctx.ejected.push(flit),
                d => {
                    if !self.link_down[d.index()] {
                        self.credits[d.index()] -= 1;
                    }
                    flit.vc = 0;
                    debug_assert!(ctx.out_links[d.index()].is_none());
                    ctx.out_links[d.index()] = Some(flit);
                }
            }
        }

        // Incoming losers are buffered (the demux steers them to the FIFO).
        for d in LINK_DIRECTIONS {
            let i = d.index();
            if let Some(f) = ctx.arrivals[i].take() {
                ctx.park(self.node, &mut self.buffers[i], f)
                    .unwrap_or_else(|_| panic!("credit violation at {}: FIFO {i} full", self.node));
                self.buffer_routes[i]
                    .push(arrival_bits[i])
                    .expect("route cache tracks the FIFO");
            }
        }

        if flipped_at_start {
            // A waiter is eligible when its (credit-masked) request mask is
            // non-empty — the priority classes guarantee it then wins.
            ctx.probe.emit(|| ProbeEvent::FairnessFlip {
                eligible_waiter: waiter_requested,
                waiter_won,
            });
        }
        for (i, b) in self.buffers.iter().enumerate() {
            ctx.probe.emit(|| ProbeEvent::FifoDepth {
                input: i as u8,
                depth: b.len() as u16,
            });
        }

        self.fairness
            .update(waiters_exist, incoming_won, waiter_won);
    }

    fn is_idle(&self) -> bool {
        self.buffers.iter().all(|b| b.is_empty())
    }

    fn occupancy(&self) -> usize {
        self.buffers.iter().map(|b| b.len()).sum()
    }

    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        self.link_down = down;
        // Routing depends on the fault map: rebuild the cached route bits
        // of every buffered flit (cold path — fault events only).
        for i in 0..4 {
            let bits: Vec<u8> = self.buffers[i]
                .iter()
                .map(|p| self.route_bits(&p.flit))
                .collect();
            self.buffer_routes[i].clear();
            for b in bits {
                self.buffer_routes[i]
                    .push(b)
                    .expect("route cache tracks the FIFO");
            }
        }
    }

    fn design_name(&self) -> &'static str {
        match self.algorithm {
            Algorithm::Dor => "Unified Xbar DOR",
            Algorithm::WestFirst => "Unified Xbar WF",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::PacketId;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn router() -> UnifiedRouter {
        UnifiedRouter::new(NodeId(5), mesh(), Algorithm::Dor, 4, 4)
    }

    fn flit(dst: u16, created: u64) -> Flit {
        Flit::synthetic(PacketId(created), NodeId(0), NodeId(dst), created)
    }

    #[test]
    fn switches_without_conflict() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::North.index()] = Some(flit(13, 1));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert!(ctx.out_links[Direction::South.index()].is_some());
        assert_eq!(ctx.events.unified_xbar_traversals, 2);
        assert_eq!(ctx.events.xbar_traversals, 0, "unified energy bucket only");
    }

    #[test]
    fn conflict_buffers_loser_like_dxbar() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 9));
        r.step(&mut ctx);
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 0);
        assert_eq!(r.occupancy(), 1);
        assert_eq!(ctx.events.buffer_writes, 1);
    }

    #[test]
    fn dual_input_same_port_two_outputs() {
        // The unified crossbar's defining feature: a buffered flit and a new
        // incoming flit from the SAME input port traverse simultaneously to
        // different outputs.
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 9));
        r.step(&mut ctx); // flit 9 buffered at South
        let mut ctx = StepCtx::new(1);
        ctx.arrivals[Direction::South.index()] = Some(flit(1, 12)); // North-bound
        r.step(&mut ctx);
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 9);
        assert_eq!(ctx.out_links[Direction::North.index()].unwrap().created, 12);
        assert!(r.is_idle());
    }

    #[test]
    fn swap_counter_fires_on_inverted_columns() {
        // Construct a row whose bufferless output column is higher than the
        // buffered one: incoming wants East(1); buffered wants North(0).
        let mut r = router();
        // Park a North-bound flit in FIFO South (lose arbitration to an
        // older North-bound incoming flit).
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(1, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(1, 5));
        r.step(&mut ctx);
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.swaps(), 0);
        // Now incoming on South wants East (col 1) while its buffered flit
        // wants North (col 0): bufferless col > buffered col -> swap.
        let mut ctx = StepCtx::new(1);
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 9));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::North.index()].is_some());
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert_eq!(r.swaps(), 1, "conflict-free allocator must swap");
    }

    #[test]
    fn injection_via_fifth_input() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.injection = Some(flit(7, 3));
        r.step(&mut ctx);
        assert!(ctx.injected);
        assert!(ctx.out_links[Direction::East.index()].is_some());
    }

    #[test]
    fn fairness_flip_serves_waiters() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 1));
        r.step(&mut ctx);
        let mut drained = false;
        for c in 1..=8u64 {
            let mut ctx = StepCtx::new(c);
            ctx.arrivals[Direction::North.index()] = Some(flit(7, 100 + c));
            // Downstream keeps draining: return one East credit per cycle.
            ctx.credits_in[Direction::East.index()] = 1;
            r.step(&mut ctx);
            if ctx.out_links[Direction::East.index()].is_some_and(|f| f.created == 1) {
                drained = true;
                break;
            }
        }
        assert!(drained, "fairness flip must serve the buffered flit");
    }

    #[test]
    fn no_credit_no_grant() {
        let mut r = router();
        r.credits[Direction::East.index()] = 0;
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_none());
        assert_eq!(r.occupancy(), 1);
    }

    #[test]
    fn second_allocation_iteration_rescues_stranded_requesters() {
        // Output-first stage 1 can hand several outputs to the port holding
        // the oldest flit, stranding other requesters; the second iteration
        // must serve them. Scenario: West holds the oldest incoming flit
        // (multi-port WF request) while North's incoming flit wants an
        // output West also requested.
        let mut r = UnifiedRouter::new(NodeId(5), mesh(), Algorithm::WestFirst, 4, 4);
        let mut ctx = StepCtx::new(0);
        // dst 10 = (2,2): East+South productive from (1,1). Oldest flit on
        // West requests both outputs; stage 1 grants it both columns.
        ctx.arrivals[Direction::West.index()] = Some(flit(10, 0));
        // Younger flit on North wants East only (dst 7 = (3,1)).
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 9));
        r.step(&mut ctx);
        // Both flits must make progress in the same cycle: the older takes
        // one of its two productive ports, the younger gets the other... or
        // at worst the younger is buffered — it must NOT be possible for an
        // output to stay idle while the younger wanted it.
        let east = ctx.out_links[Direction::East.index()];
        let south = ctx.out_links[Direction::South.index()];
        assert!(east.is_some(), "East must not idle while a flit wants it");
        assert!(
            south.is_some() || r.occupancy() == 1,
            "older flit must use its alternate port or the younger buffers"
        );
        assert_eq!(ctx.flits_out() + r.occupancy(), 2);
    }

    #[test]
    fn design_names() {
        assert_eq!(router().design_name(), "Unified Xbar DOR");
        let wf = UnifiedRouter::new(NodeId(5), mesh(), Algorithm::WestFirst, 4, 4);
        assert_eq!(wf.design_name(), "Unified Xbar WF");
    }
}
