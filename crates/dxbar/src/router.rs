//! The DXbar dual-crossbar router (Sections II-A and II-C).
//!
//! Micro-architecture per Fig. 1:
//!
//! * a bufferless **primary** 4x5 crossbar switches incoming flits in the
//!   single SA/ST pipeline stage (look-ahead routing removed RC; no
//!   VC/buffer stages exist);
//! * four 4-deep serial FIFOs feed a **secondary** 5x5 crossbar; the PE
//!   injection port is the secondary's fifth input (no buffer in front of
//!   it);
//! * de-multiplexers steer an arbitration loser into its input's FIFO;
//!   output multiplexers merge the two crossbars, so each output port still
//!   carries at most one flit per cycle;
//! * the same input port may source two flits in one cycle — one incoming
//!   via the primary, one buffered via the secondary — to *different*
//!   outputs (Fig. 3(d));
//! * incoming flits out-prioritize buffered/injection flits, arbitrated
//!   oldest-first within each class; the fairness counter flips priority
//!   for one cycle after `threshold` consecutive incoming wins while
//!   waiters exist;
//! * credit flow control on the FIFOs guarantees a loser can always be
//!   buffered: an incoming flit that bypasses (wins the primary) returns
//!   its credit immediately, a buffered flit returns it when it leaves.
//!
//! Fault tolerance (Section II-C): a permanent fault kills one crossbar.
//! Until BIST detection completes (5 cycles after the first failed
//! traversal attempt), allocations onto the broken crossbar are simply
//! wasted. After detection, a failed primary degrades the router to a
//! buffered router through the secondary; a failed secondary lets buffered
//! flits reach free primary rows through the 2x2 bypass switches (sharing
//! the row with the input's own incoming flit).

use crate::crossbar::{ConnectError, Crossbar};
use crate::fairness::FairnessCounter;
use noc_core::flit::Flit;
use noc_core::inline::InlineVec;
use noc_core::queue::FixedQueue;
use noc_core::types::{
    Direction, NodeId, PortSet, ALL_DIRECTIONS, LINK_DIRECTIONS, NUM_LINK_PORTS,
};
use noc_faults::{CrossbarId, FaultClock, RouterFault};
use noc_routing::{usable_route, Algorithm};
use noc_sim::datapath::Parked;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::verify::ProbeEvent;
use noc_topology::Mesh;
use noc_trace::TraceEvent;

/// Hops remaining along the dimension of `dir` from `current` to `dst` —
/// the adaptive tie-breaker (reduce the longer leg first, as BLESS's port
/// ranking does).
pub(crate) fn remaining_leg(mesh: &Mesh, current: NodeId, dst: NodeId, dir: Direction) -> u32 {
    let c = mesh.coord_of(current);
    let d = mesh.coord_of(dst);
    match dir {
        Direction::East | Direction::West => c.x.abs_diff(d.x) as u32,
        Direction::North | Direction::South => c.y.abs_diff(d.y) as u32,
        Direction::Local => 0,
    }
}

/// The per-requester decision of DXbar's greedy age-ordered allocation:
/// the best free, credit-backed output for a route set. Ejection wins
/// outright; among link ports prefer the least congested (most credits),
/// then the longer remaining dimension. `None` = the requester lost
/// arbitration this cycle.
///
/// Exposed so `noc-verify`'s micro-model-checker can enumerate the exact
/// allocation function the router executes.
pub fn best_output(
    route: PortSet,
    out_used: &[bool; 5],
    credits: &[u32; 4],
    leg: impl Fn(Direction) -> u32,
) -> Option<Direction> {
    let mut target = None;
    let mut best_key = (0u32, 0u32);
    for dir in ALL_DIRECTIONS {
        if !route.contains(dir) || out_used[dir.index()] {
            continue;
        }
        if dir == Direction::Local {
            return Some(dir);
        }
        if credits[dir.index()] == 0 {
            continue;
        }
        let key = (credits[dir.index()], leg(dir));
        if target.is_none() || key > best_key {
            target = Some(dir);
            best_key = key;
        }
    }
    target
}

/// Sort key for age-ordered arbitration (see `Flit::age_key`).
type AgeKey = (u64, u64, u8);

/// One arbitration requester: who it is, its age key, and its flit's
/// destination — everything allocation needs short of a grant.
type Candidate = (Who, AgeKey, NodeId);

/// Who requests an output port this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Who {
    /// Incoming flit on link input `i` (primary crossbar).
    Incoming(usize),
    /// Head of FIFO `i` (secondary crossbar, or primary via bypass).
    Buffered(usize),
    /// The PE injection port (secondary input 4).
    Injection,
}

/// The DXbar dual-crossbar router.
pub struct DXbarRouter {
    node: NodeId,
    mesh: Mesh,
    algorithm: Algorithm,
    depth: usize,
    /// One FIFO per link input, in front of the secondary crossbar.
    buffers: [FixedQueue<Parked>; 4],
    /// Credits toward each downstream neighbour's FIFO.
    credits: [u32; 4],
    fairness: FairnessCounter,
    /// Lifetime count of fairness flips (trace epoch).
    fairness_flips: u64,
    primary: Crossbar,
    secondary: Crossbar,
    fault: Option<FaultClock>,
    /// Dead output links, published by the engine's resilience layer.
    link_down: [bool; NUM_LINK_PORTS],
    /// Whether any entry of `link_down` is set — lets the fault-free
    /// common case skip credit masking entirely.
    any_link_down: bool,
}

impl DXbarRouter {
    pub fn new(
        node: NodeId,
        mesh: Mesh,
        algorithm: Algorithm,
        depth: usize,
        fairness_threshold: u32,
        fault: Option<RouterFault>,
        detection_delay: u64,
    ) -> DXbarRouter {
        let mut primary = Crossbar::new(4, 5);
        let mut secondary = Crossbar::new(5, 5);
        if let Some(f) = fault {
            debug_assert_eq!(f.router, node, "fault planned for another router");
            match f.target {
                CrossbarId::Primary => primary.fail(f.onset),
                CrossbarId::Secondary => secondary.fail(f.onset),
            }
        }
        let mut credits = [0u32; 4];
        for d in LINK_DIRECTIONS {
            if mesh.neighbor(node, d).is_some() {
                credits[d.index()] = depth as u32;
            }
        }
        DXbarRouter {
            node,
            mesh,
            algorithm,
            depth,
            buffers: std::array::from_fn(|_| FixedQueue::new(depth)),
            credits,
            fairness: FairnessCounter::new(fairness_threshold),
            fairness_flips: 0,
            primary,
            secondary,
            fault: fault.map(|f| FaultClock::new(f, detection_delay)),
            link_down: [false; NUM_LINK_PORTS],
            any_link_down: false,
        }
    }

    /// Convenience: fault-free router.
    pub fn healthy(
        node: NodeId,
        mesh: Mesh,
        algorithm: Algorithm,
        depth: usize,
        fairness_threshold: u32,
    ) -> DXbarRouter {
        DXbarRouter::new(node, mesh, algorithm, depth, fairness_threshold, None, 5)
    }

    /// Current fairness-counter state (tests/diagnostics).
    pub fn fairness(&self) -> &FairnessCounter {
        &self.fairness
    }

    /// Whether the fault (if any) has been detected by `cycle`.
    pub fn fault_detected(&self, cycle: u64) -> bool {
        self.fault.as_ref().is_some_and(|f| f.detected(cycle))
    }

    /// Break a single crosspoint of one crossbar from `onset` on — the
    /// finer fault granularity Section I mentions ("faults that could occur
    /// at the crosspoints connecting any input to output"). The dual-path
    /// design routes around it with no reconfiguration: a flit whose
    /// primary crosspoint is dead simply diverts to the buffers and leaves
    /// through the secondary crossbar.
    pub fn fail_crosspoint(&mut self, which: CrossbarId, input: usize, output: usize, onset: u64) {
        match which {
            CrossbarId::Primary => self.primary.fail_crosspoint(input, output, onset),
            CrossbarId::Secondary => self.secondary.fail_crosspoint(input, output, onset),
        }
    }

    /// The flit a requester refers to: the arrival latch, FIFO head or
    /// injection port it occupies until granted or diverted. Candidates
    /// are resolved lazily so the sorted candidate lists carry only
    /// age keys, not 80-byte flit copies.
    #[inline]
    fn resolve_flit(&self, who: Who, ctx: &StepCtx) -> Flit {
        match who {
            Who::Incoming(i) => ctx.arrivals[i].expect("arrival latch empty"),
            Who::Buffered(i) => self.buffers[i].front().expect("FIFO head empty").flit,
            Who::Injection => ctx.injection.expect("injection port empty"),
        }
    }
}

impl RouterModel for DXbarRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        let t = ctx.cycle;
        self.primary.reset();
        self.secondary.reset();

        // Credit returns from downstream.
        for d in LINK_DIRECTIONS {
            let c = ctx.credits_in[d.index()];
            if c > 0 {
                self.credits[d.index()] += c;
                debug_assert!(
                    self.credits[d.index()] <= self.depth as u32,
                    "credit overflow toward {d}"
                );
            }
        }

        // A dead output link cannot backpressure: the engine swallows (and
        // accounts) anything sent into it, so allocation sees it as a
        // one-credit sink instead of draining real credits to zero.
        let mut eff_credits = self.credits;
        if self.any_link_down {
            for d in LINK_DIRECTIONS {
                if self.link_down[d.index()] {
                    eff_credits[d.index()] = 1;
                }
            }
        }

        // Fault phases this cycle.
        let primary_detected = self
            .fault
            .as_ref()
            .is_some_and(|f| f.fault.target == CrossbarId::Primary && f.detected(t));
        let secondary_detected = self
            .fault
            .as_ref()
            .is_some_and(|f| f.fault.target == CrossbarId::Secondary && f.detected(t));

        // Build the two priority classes as `(who, age_key, dst)` tuples;
        // the flits themselves stay where they already are (arrival latch,
        // FIFO head, injection port) and are only copied out on a grant,
        // so the sorts and the allocation walk below move 32-byte records
        // instead of 80-byte flits — and an arbitration loser never
        // touches its flit at all. Capacities are architectural: at most
        // 4 arrivals, 4 FIFO heads + 1 injection.
        let mut incoming: InlineVec<Candidate, 4> = InlineVec::new();
        let mut waiting: InlineVec<Candidate, 5> = InlineVec::new();
        for d in LINK_DIRECTIONS {
            if primary_detected {
                let Some(f) = ctx.arrivals[d.index()].take() else {
                    continue;
                };
                // Demuxes are pinned to the buffers: the router has
                // degraded to a buffered design.
                ctx.park(self.node, &mut self.buffers[d.index()], f)
                    .unwrap_or_else(|_| panic!("credit violation at {} (fault mode)", self.node));
            } else if let Some(f) = &ctx.arrivals[d.index()] {
                incoming.push((Who::Incoming(d.index()), f.age_key(), f.dst));
            }
        }
        for (i, b) in self.buffers.iter().enumerate() {
            if let Some(p) = b.front() {
                waiting.push((Who::Buffered(i), p.flit.age_key(), p.flit.dst));
            }
        }
        if let Some(f) = &ctx.injection {
            waiting.push((Who::Injection, f.age_key(), f.dst));
        }
        let waiters_exist = !waiting.is_empty();

        // Oldest-first within each class. Unstable sort is deterministic
        // here: `age_key` is unique across coexisting flits.
        incoming.sort_unstable_by_key(|&(_, k, _)| k);
        waiting.sort_unstable_by_key(|&(_, k, _)| k);
        let flipped = self.fairness.flipped();
        if flipped {
            self.fairness_flips += 1;
            let epoch = self.fairness_flips;
            ctx.trace.emit(|| TraceEvent::FairnessFlip {
                cycle: t,
                node: self.node,
                epoch,
            });
        }
        // Probe: could any waiter actually be served this cycle? Input to
        // the fairness-starvation oracle; a wasted undetected-fault cycle
        // clears it below (legal non-service).
        let waiter_eligible = flipped
            && ctx.probe.is_enabled()
            && waiting.iter().any(|(_, _, dst)| {
                let route = usable_route(
                    self.algorithm.route(&self.mesh, self.node, dst),
                    &self.link_down,
                );
                best_output(route, &[false; 5], &eff_credits, |_| 0).is_some()
            });
        // Walk the winners-first order without materializing it: flipped
        // cycles serve waiters before incoming, normal cycles the reverse.
        let (first, second): (&[Candidate], &[Candidate]) = if flipped {
            (&waiting, &incoming)
        } else {
            (&incoming, &waiting)
        };

        // Allocation state.
        let mut out_used = [false; 5];
        let mut primary_row_used = [false; 4];
        let mut incoming_won = false;
        let mut waiter_won = false;
        let mut faulty_wasted = false;
        let mut diverted: InlineVec<usize, 4> = InlineVec::new(); // inputs whose arrival lost

        for &(who, _, dst) in first.iter().chain(second.iter()) {
            let route = usable_route(
                self.algorithm.route(&self.mesh, self.node, dst),
                &self.link_down,
            );
            // Best free, credit-backed output: the adaptive selection that
            // makes WF competitive instead of piling onto the lowest port
            // index (see `best_output`).
            let target = best_output(route, &out_used, &eff_credits, |dir| {
                remaining_leg(&self.mesh, self.node, dst, dir)
            });
            let Some(dir) = target else {
                // Lost arbitration.
                if let Who::Incoming(i) = who {
                    diverted.push(i);
                }
                continue;
            };
            let out_idx = dir.index();

            // Physical traversal through the right crossbar.
            let traversal = match who {
                Who::Incoming(i) => {
                    let r = self.primary.connect(t, i, out_idx);
                    if r.is_ok() {
                        primary_row_used[i] = true;
                    }
                    r
                }
                Who::Buffered(i) => {
                    if secondary_detected {
                        // 2x2 bypass switch onto the input's primary row.
                        if primary_row_used[i] {
                            Err(ConnectError::InputBusy)
                        } else {
                            let r = self.primary.connect(t, i, out_idx);
                            if r.is_ok() {
                                primary_row_used[i] = true;
                            }
                            r
                        }
                    } else {
                        self.secondary.connect(t, i, out_idx)
                    }
                }
                Who::Injection => {
                    if secondary_detected {
                        // Any free primary row reachable through the bypass
                        // switches.
                        match (0..4).find(|&i| !primary_row_used[i]) {
                            Some(i) => {
                                let r = self.primary.connect(t, i, out_idx);
                                if r.is_ok() {
                                    primary_row_used[i] = true;
                                }
                                r
                            }
                            None => Err(ConnectError::InputBusy),
                        }
                    } else {
                        self.secondary.connect(t, 4, out_idx)
                    }
                }
            };

            match traversal {
                Ok(()) => {
                    // Commit the grant.
                    out_used[out_idx] = true;
                    ctx.events.xbar_traversals += 1;
                    let (probe_input, probe_slot) = match who {
                        Who::Incoming(i) => (i as u8, 0u8),
                        Who::Buffered(i) => (i as u8, 1),
                        Who::Injection => (4, 2),
                    };
                    ctx.probe.emit(|| ProbeEvent::Grant {
                        input: probe_input,
                        slot: probe_slot,
                        output: out_idx as u8,
                    });
                    let mut flit = self.resolve_flit(who, ctx);
                    match who {
                        Who::Incoming(i) => {
                            incoming_won = true;
                            ctx.arrivals[i] = None;
                            // Bypass: the reserved FIFO slot was never used.
                            ctx.credits_out[i] += 1;
                        }
                        Who::Buffered(i) => {
                            waiter_won = true;
                            let popped = ctx.unpark(self.node, &mut self.buffers[i]);
                            debug_assert!(popped.is_some());
                            ctx.credits_out[i] += 1;
                            if !secondary_detected {
                                ctx.trace.emit(|| TraceEvent::DivertSecondary {
                                    cycle: t,
                                    node: self.node,
                                    packet: flit.packet,
                                    flit_index: flit.flit_index as u16,
                                });
                            }
                        }
                        Who::Injection => {
                            waiter_won = true;
                            ctx.injected = true;
                        }
                    }
                    match dir {
                        Direction::Local => ctx.ejected.push(flit),
                        d => {
                            if !self.link_down[d.index()] {
                                self.credits[d.index()] -= 1;
                            }
                            flit.vc = 0;
                            debug_assert!(
                                ctx.out_links[d.index()].is_none(),
                                "output granted twice"
                            );
                            ctx.out_links[d.index()] = Some(flit);
                        }
                    }
                }
                Err(ConnectError::Faulty) => {
                    // Undetected fault: the allocation was made but the
                    // electrical path is dead — the cycle and the output
                    // slot are wasted, and the BIST countdown starts.
                    out_used[out_idx] = true;
                    faulty_wasted = true;
                    if let Some(fc) = self.fault.as_mut() {
                        fc.record_failed_attempt(t);
                    }
                    if let Who::Incoming(i) = who {
                        diverted.push(i);
                    }
                }
                Err(_) => {
                    // Structurally blocked (shared primary row in secondary-
                    // fault mode): the requester waits.
                    if let Who::Incoming(i) = who {
                        diverted.push(i);
                    }
                }
            }
        }

        // Losers among incoming flits are steered into their FIFO by the
        // de-multiplexer. Credit flow control guarantees space.
        for i in diverted.iter() {
            let f = ctx.arrivals[i].take().expect("diverted arrival present");
            ctx.park(self.node, &mut self.buffers[i], f)
                .unwrap_or_else(|_| panic!("credit violation at {}: FIFO {i} full", self.node));
        }
        // Sanity: every arrival was either granted or buffered.
        debug_assert!(
            primary_detected || ctx.arrivals.iter().all(|a| a.is_none()),
            "arrival neither switched nor buffered"
        );

        if flipped {
            ctx.probe.emit(|| ProbeEvent::FairnessFlip {
                eligible_waiter: waiter_eligible && !faulty_wasted,
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
        self.any_link_down = down.iter().any(|&b| b);
    }

    fn design_name(&self) -> &'static str {
        match self.algorithm {
            Algorithm::Dor => "DXbar DOR",
            Algorithm::WestFirst => "DXbar WF",
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

    fn router() -> DXbarRouter {
        // Node 5 = (1,1), interior.
        DXbarRouter::healthy(NodeId(5), mesh(), Algorithm::Dor, 4, 4)
    }

    fn flit(dst: u16, created: u64) -> Flit {
        Flit::synthetic(PacketId(created), NodeId(0), NodeId(dst), created)
    }

    fn faulty_router(target: CrossbarId, onset: u64) -> DXbarRouter {
        DXbarRouter::new(
            NodeId(5),
            mesh(),
            Algorithm::Dor,
            4,
            4,
            Some(RouterFault {
                router: NodeId(5),
                target,
                onset,
            }),
            5,
        )
    }

    #[test]
    fn no_conflict_single_cycle_switching() {
        // Paper Fig. 3(a): four flits, four distinct outputs, all switched
        // in one cycle like a bufferless network.
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        // From (1,1): dst 7=(3,1) East; dst 4=(0,1) West; dst 13=(1,3)
        // South; dst 1=(1,0) North.
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::East.index()] = Some(flit(4, 1));
        ctx.arrivals[Direction::North.index()] = Some(flit(13, 2));
        ctx.arrivals[Direction::South.index()] = Some(flit(1, 3));
        r.step(&mut ctx);
        assert_eq!(ctx.out_links.iter().flatten().count(), 4);
        assert_eq!(ctx.events.buffer_writes, 0, "nothing buffered");
        assert_eq!(ctx.events.xbar_traversals, 4);
        // All four bypassed: credits returned on every input.
        assert_eq!(ctx.credits_out.iter().sum::<u32>(), 4);
        assert!(r.is_idle());
    }

    #[test]
    fn conflict_buffers_the_younger_flit() {
        // Paper Fig. 3(b): two flits compete for one output; the older wins
        // the primary crossbar, the loser is buffered, not deflected.
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0)); // older
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 9)); // younger
        r.step(&mut ctx);
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 0);
        assert_eq!(ctx.events.buffer_writes, 1);
        assert_eq!(ctx.events.deflections, 0, "DXbar never deflects");
        assert_eq!(r.occupancy(), 1);
        // Loser's credit is NOT returned (it occupies a slot); winner's is.
        assert_eq!(ctx.credits_out[Direction::West.index()], 1);
        assert_eq!(ctx.credits_out[Direction::South.index()], 0);
    }

    #[test]
    fn buffered_flit_drains_when_output_free() {
        // Paper Fig. 3(d): the buffered flit proceeds through the secondary
        // crossbar while a NEW incoming flit on the same input port goes
        // through the primary to a different output, simultaneously.
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 9));
        r.step(&mut ctx);
        assert_eq!(r.occupancy(), 1); // the younger is in FIFO South

        // Next cycle: a new arrival on South wants North (dst 1=(1,0));
        // the buffered flit re-claims East.
        let mut ctx = StepCtx::new(1);
        ctx.arrivals[Direction::South.index()] = Some(flit(1, 12));
        r.step(&mut ctx);
        let east = ctx.out_links[Direction::East.index()].expect("buffered flit drained East");
        assert_eq!(east.created, 9);
        let north = ctx.out_links[Direction::North.index()].expect("incoming went North");
        assert_eq!(north.created, 12);
        assert_eq!(ctx.events.buffer_reads, 1);
        assert!(r.is_idle());
        // South returned two credits this cycle: one bypass + one drain.
        assert_eq!(ctx.credits_out[Direction::South.index()], 2);
    }

    #[test]
    fn incoming_has_priority_over_buffered() {
        let mut r = router();
        // Buffer a flit wanting East.
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 5));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 9));
        r.step(&mut ctx);
        assert_eq!(r.occupancy(), 1);
        // New incoming flit also wants East; it is YOUNGER than the
        // buffered one but incoming class has priority.
        let mut ctx = StepCtx::new(1);
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 20));
        r.step(&mut ctx);
        assert_eq!(
            ctx.out_links[Direction::East.index()].unwrap().created,
            20,
            "incoming beats buffered regardless of age"
        );
        assert_eq!(r.occupancy(), 1, "the buffered flit is still waiting");
    }

    #[test]
    fn fairness_flip_lets_waiters_through() {
        let mut r = router();
        // Park a buffered flit wanting East.
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 1));
        r.step(&mut ctx);
        assert_eq!(r.occupancy(), 1);
        // Keep hammering East with fresh incoming flits; after 4
        // consecutive incoming wins the flip must serve the waiter.
        let mut drained_at = None;
        for c in 1..=8u64 {
            let mut ctx = StepCtx::new(c);
            ctx.arrivals[Direction::North.index()] = Some(flit(7, 100 + c));
            // Downstream keeps draining: return one East credit per cycle.
            ctx.credits_in[Direction::East.index()] = 1;
            r.step(&mut ctx);
            if let Some(f) = ctx.out_links[Direction::East.index()] {
                if f.created == 1 {
                    drained_at = Some(c);
                    break;
                }
            }
        }
        let c = drained_at.expect("fairness flip never served the waiter");
        assert!(c <= 6, "waiter served at cycle {c}, too late");
    }

    #[test]
    fn injection_waits_for_free_output() {
        // Paper Fig. 3(c): "The injection port can send a flit whenever the
        // desired output port is not occupied."
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.injection = Some(flit(7, 50)); // same East output -> blocked
        r.step(&mut ctx);
        assert!(!ctx.injected);
        let mut ctx = StepCtx::new(1);
        ctx.injection = Some(flit(7, 50));
        r.step(&mut ctx);
        assert!(ctx.injected);
        assert!(ctx.out_links[Direction::East.index()].is_some());
    }

    #[test]
    fn ejection_through_local_port() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::North.index()] = Some(flit(5, 0));
        r.step(&mut ctx);
        assert_eq!(ctx.ejected.len(), 1);
        // Second flit to the same destination next cycle drains from buffer.
        let mut ctx = StepCtx::new(1);
        ctx.arrivals[Direction::North.index()] = Some(flit(5, 1));
        ctx.arrivals[Direction::South.index()] = Some(flit(5, 2));
        r.step(&mut ctx);
        assert_eq!(ctx.ejected.len(), 1, "one ejection per cycle (output MUX)");
        assert_eq!(r.occupancy(), 1);
        let mut ctx = StepCtx::new(2);
        r.step(&mut ctx);
        assert_eq!(ctx.ejected.len(), 1);
        assert!(r.is_idle());
    }

    #[test]
    fn no_credit_blocks_and_buffers() {
        let mut r = router();
        r.credits[Direction::East.index()] = 0;
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_none());
        assert_eq!(r.occupancy(), 1, "no-credit loser is buffered");
        // Credit return unblocks.
        let mut ctx = StepCtx::new(1);
        ctx.credits_in[Direction::East.index()] = 1;
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
    }

    #[test]
    fn undetected_primary_fault_wastes_cycle_then_detected_degrades() {
        let mut r = faulty_router(CrossbarId::Primary, 0);
        // First attempt fails silently (undetected).
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_none());
        assert_eq!(r.occupancy(), 1, "failed flit diverted to buffer");
        assert!(!r.fault_detected(0));
        // 5 cycles later the BIST has flagged it; the router operates as a
        // buffered router through the secondary crossbar.
        assert!(r.fault_detected(5));
        let mut ctx = StepCtx::new(5);
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 10));
        r.step(&mut ctx);
        // Arrival at t=5 goes to the buffer (buffered mode); the old
        // buffered flit drains via the secondary.
        let out = ctx.out_links[Direction::East.index()].expect("secondary still works");
        assert_eq!(out.created, 0);
        assert_eq!(r.occupancy(), 1);
        let mut ctx = StepCtx::new(6);
        r.step(&mut ctx);
        assert_eq!(
            ctx.out_links[Direction::East.index()].unwrap().created,
            10,
            "degraded router keeps forwarding"
        );
        assert!(r.is_idle());
    }

    #[test]
    fn detected_secondary_fault_uses_bypass_rows() {
        let mut r = faulty_router(CrossbarId::Secondary, 0);
        // Park a flit in FIFO West by arbitration loss.
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 1));
        r.step(&mut ctx);
        assert_eq!(r.occupancy(), 1);
        // Draining attempts hit the broken secondary -> failed attempt at
        // t=1 -> detected from t=6.
        let mut ctx = StepCtx::new(1);
        r.step(&mut ctx);
        assert_eq!(r.occupancy(), 1, "secondary traversal failed");
        assert!(r.fault_detected(6));
        // After detection, the 2x2 switches steer the FIFO head onto the
        // free primary row.
        let mut ctx = StepCtx::new(6);
        r.step(&mut ctx);
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 1);
        assert!(r.is_idle());
    }

    #[test]
    fn secondary_fault_mode_shares_primary_row() {
        let mut r = faulty_router(CrossbarId::Secondary, 0);
        // Buffer one flit on South, detect the fault.
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 1));
        r.step(&mut ctx);
        let mut ctx = StepCtx::new(1);
        r.step(&mut ctx); // failed secondary attempt -> BIST countdown
        assert_eq!(r.occupancy(), 1);
        // At t=6 (detected): a new incoming flit on South uses the primary
        // row; the buffered South flit cannot share it in the same cycle,
        // even though its East output is free.
        let mut ctx = StepCtx::new(6);
        ctx.arrivals[Direction::South.index()] = Some(flit(1, 2)); // North-bound
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::North.index()].is_some());
        assert!(
            ctx.out_links[Direction::East.index()].is_none(),
            "row conflict: buffered flit must wait for a free row"
        );
        assert_eq!(r.occupancy(), 1);
        // Next cycle the row is free.
        let mut ctx = StepCtx::new(7);
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
    }

    #[test]
    fn single_crosspoint_fault_routes_around_via_secondary() {
        // Break only the primary crosspoint (West input -> East output).
        let mut r = router();
        r.fail_crosspoint(
            CrossbarId::Primary,
            Direction::West.index(),
            Direction::East.index(),
            0,
        );
        // Cycle 0: the incoming flit wins arbitration but its crosspoint is
        // dead -> diverted to the buffer.
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_none());
        assert_eq!(r.occupancy(), 1);
        // Cycle 1: it drains through the secondary crossbar, whose (West,
        // East) crosspoint is healthy — no detection/reconfiguration needed.
        let mut ctx = StepCtx::new(1);
        r.step(&mut ctx);
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 0);
        assert!(r.is_idle());
        // Other paths through the primary still work in a single cycle.
        let mut ctx = StepCtx::new(2);
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 5));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert_eq!(ctx.events.buffer_writes, 0, "healthy paths stay bufferless");
    }

    #[test]
    fn dead_link_reroutes_wf_but_not_dor() {
        // WF adaptive: dst 10 = (2,2) from (1,1) has East+South productive;
        // with East dead the flit must leave South.
        let mut wf = DXbarRouter::healthy(NodeId(5), mesh(), Algorithm::WestFirst, 4, 4);
        let mut down = [false; NUM_LINK_PORTS];
        down[Direction::East.index()] = true;
        wf.set_faulty_links(down);
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(10, 0));
        wf.step(&mut ctx);
        assert!(ctx.out_links[Direction::South.index()].is_some());
        assert!(ctx.out_links[Direction::East.index()].is_none());

        // DOR: dst 7 = (3,1) routes East only — the flit still exits into
        // the dead link (the engine accounts the loss) rather than wedging
        // the router, even with zero real credits toward East.
        let mut dor = router();
        dor.set_faulty_links(down);
        dor.credits[Direction::East.index()] = 0;
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        dor.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert!(dor.is_idle(), "doomed flit must not pile up in the FIFOs");
    }

    #[test]
    fn wf_adaptive_buffered_flit_takes_alternate_port() {
        // West-First: a buffered flit with two productive ports adapts to
        // whichever is free — the paper's argued advantage over
        // dimension-split crossbars.
        let mut r = DXbarRouter::healthy(NodeId(5), mesh(), Algorithm::WestFirst, 4, 4);
        // dst 10 = (2,2): East and South both productive from (1,1).
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0)); // East only
        ctx.arrivals[Direction::North.index()] = Some(flit(10, 9)); // E or S
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert!(
            ctx.out_links[Direction::South.index()].is_some(),
            "adaptive flit must take its alternate productive port"
        );
        assert!(r.is_idle());
        assert_eq!(r.design_name(), "DXbar WF");
    }
}
