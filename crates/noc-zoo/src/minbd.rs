//! MinBD-style minimally-buffered deflection router.
//!
//! MinBD (Fallin et al.; surveyed in arXiv:2112.02516) sits between
//! Flit-BLESS and the buffered baselines: the datapath is a deflection
//! switch, but a *small side buffer* absorbs a would-be-deflected flit
//! per cycle, and buffered flits re-enter the pipeline when an input
//! slot is free. Two mechanisms bound livelock and starvation:
//!
//! * **buffer ejection / redirection** — each cycle at most one flit that
//!   would lose port arbitration is moved into the side buffer instead of
//!   deflecting (*buffer ejection*); when the buffer is full its head is
//!   forced back into the pipeline even before its re-injection timer
//!   expires (*redirection*), so the buffer can never wedge;
//! * **silver-flit prioritization** — each cycle the most-deflected
//!   (oldest on ties) flit in the pipeline is *silver*: it is assigned
//!   its best productive port first and is never buffer-ejected, so some
//!   flit always makes forward progress and deflection counts stay
//!   bounded.

use noc_core::flit::Flit;
use noc_core::inline::InlineVec;
use noc_core::queue::FixedQueue;
use noc_core::types::{Cycle, Direction, NodeId, PortSet, NUM_LINK_PORTS};
use noc_routing::deflection::PortRanking;
use noc_sim::datapath::Parked;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::verify::ProbeEvent;
use noc_topology::Mesh;

/// Priority key for silver election: most deflected first, oldest on
/// ties. `age_key` is unique per coexisting flit, so the winner is
/// deterministic.
fn silver_key(f: &Flit) -> (u16, std::cmp::Reverse<(Cycle, u64, u8)>) {
    (f.deflections, std::cmp::Reverse(f.age_key()))
}

/// The MinBD router.
pub struct MinBdRouter {
    node: NodeId,
    mesh: Mesh,
    num_links: usize,
    /// The side buffer: one small FIFO per router, not per input.
    buffer: FixedQueue<Parked>,
    /// Dead output links, published by the engine's resilience layer.
    link_down: [bool; NUM_LINK_PORTS],
}

impl MinBdRouter {
    /// `depth` matches the buffered baselines' per-input depth; MinBD
    /// spends it once, on the single side buffer.
    pub fn new(node: NodeId, mesh: Mesh, depth: usize) -> MinBdRouter {
        MinBdRouter {
            node,
            mesh,
            num_links: mesh.link_dirs(node).count(),
            buffer: FixedQueue::new(depth),
            link_down: [false; NUM_LINK_PORTS],
        }
    }

    /// Index of the silver flit in `actives`: most deflected, oldest on
    /// ties. `None` when the pipeline is empty.
    pub fn pick_silver(actives: &[Flit]) -> Option<usize> {
        actives
            .iter()
            .enumerate()
            .max_by_key(|(_, f)| silver_key(f))
            .map(|(i, _)| i)
    }

    /// Verification hook: park a flit directly in the side buffer with the
    /// given ready cycle. Returns `false` when the buffer is full. The
    /// noc-verify step-invariant checker uses this to enumerate buffer
    /// pre-states without replaying injection histories.
    pub fn preload(&mut self, flit: Flit, ready: Cycle) -> bool {
        self.buffer.push(Parked { flit, ready }).is_ok()
    }
}

impl RouterModel for MinBdRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        // Ejection: the oldest arrival for this node leaves (one PE port);
        // if no arrival wants out, a ready side-buffer head may eject.
        let mut actives = InlineVec::new();
        let mut ejected = ctx.take_arrivals(self.node, &mut actives);
        if !ejected
            && self
                .buffer
                .front()
                .is_some_and(|p| p.ready <= ctx.cycle && p.flit.dst == self.node)
        {
            let f = ctx.unpark(self.node, &mut self.buffer);
            ctx.eject(f.expect("head exists"));
            ejected = true;
        }

        // Re-injection / redirection: a free pipeline slot pulls the
        // side-buffer head back in. A full buffer redirects its head
        // unconditionally (even before its timer) so it can never wedge;
        // otherwise only a ready, non-local head re-enters.
        let mut from_buffer: Option<(Cycle, u64, u8)> = None;
        if actives.len() < self.num_links {
            let force = self.buffer.is_full();
            let head_ok = self
                .buffer
                .front()
                .map(|p| force || (p.ready <= ctx.cycle && p.flit.dst != self.node))
                .unwrap_or(false);
            if head_ok {
                let f = ctx
                    .unpark(self.node, &mut self.buffer)
                    .expect("head exists");
                from_buffer = Some(f.age_key());
                actives.push(f);
            }
        }

        // Injection: fills the last free slot, below buffered traffic.
        if actives.len() < self.num_links {
            if let Some(inj) = ctx.injection {
                if inj.dst == self.node {
                    if !ejected {
                        ctx.eject(inj);
                        ctx.injected = true;
                    }
                } else {
                    actives.push(inj);
                    ctx.injected = true;
                }
            }
        }

        if actives.is_empty() {
            return;
        }

        // Silver election: most deflected, oldest on ties. The silver flit
        // is assigned first and never buffer-ejected.
        let silver = Self::pick_silver(&actives).expect("actives non-empty");
        let silver_id = actives[silver].age_key();

        // Buffer ejection: if two pipeline flits contend for the same
        // preferred port, park the lowest-priority contender (never the
        // silver flit, never the flit that just left the buffer) instead
        // of letting it deflect. At most one buffer write per cycle.
        if !self.buffer.is_full() && actives.len() >= 2 {
            // Each flit's preferred port, ranked once; `contested` holds
            // the ports two or more flits prefer.
            let preferred: InlineVec<Direction, 5> = actives
                .iter()
                .map(|f| PortRanking::new(&self.mesh, self.node, f.dst).first())
                .collect();
            let (mut wanted, mut contested) = (PortSet::EMPTY, PortSet::EMPTY);
            for d in preferred.iter() {
                if wanted.contains(d) {
                    contested.insert(d);
                }
                wanted.insert(d);
            }
            let victim = actives
                .iter()
                .zip(preferred.iter())
                .enumerate()
                .filter(|(_, (_, d))| contested.contains(*d))
                .filter(|(_, (f, _))| f.age_key() != silver_id)
                .filter(|(_, (f, _))| from_buffer != Some(f.age_key()))
                .max_by_key(|(_, (f, _))| f.age_key())
                .map(|(i, _)| i);
            if let Some(i) = victim {
                let f = actives.remove(i);
                if let Err(f) = ctx.park(self.node, &mut self.buffer, f) {
                    // Unreachable (checked !is_full above), but a push
                    // race must never lose the flit.
                    actives.push(f);
                }
            }
        }

        // Port assignment: silver first (best productive port), the rest
        // oldest first, deflecting when beaten.
        // `actives` never exceeds its five slots: four arrivals at most,
        // and the buffer head and the injection each enter only while
        // fewer flits than links are active.
        let mut order: InlineVec<Flit, 5> = InlineVec::new();
        if let Some(pos) = actives.iter().position(|f| f.age_key() == silver_id) {
            order.push(actives.remove(pos));
        }
        actives.sort_unstable_by_key(|f| f.age_key());
        for f in actives.iter() {
            order.push(f);
        }

        ctx.deflection_assign(
            &self.mesh,
            self.node,
            &self.link_down,
            &order,
            &mut PortSet::default(),
        );

        if ctx.probe.is_enabled() {
            let depth = self.buffer.len() as u16;
            ctx.probe.emit(|| ProbeEvent::FifoDepth { input: 0, depth });
        }
    }

    fn is_idle(&self) -> bool {
        self.buffer.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.buffer.len()
    }

    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        self.link_down = down;
    }

    fn design_name(&self) -> &'static str {
        "MinBD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::PacketId;
    use noc_core::types::{Direction, LINK_DIRECTIONS};

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn router() -> MinBdRouter {
        MinBdRouter::new(NodeId(5), mesh(), 4)
    }

    fn flit(dst: u16, created: u64) -> Flit {
        Flit::synthetic(PacketId(created), NodeId(0), NodeId(dst), created)
    }

    #[test]
    fn lone_flit_takes_its_productive_port() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert_eq!(ctx.events.deflections, 0);
        assert!(r.is_idle());
    }

    #[test]
    fn conflict_buffers_one_flit_instead_of_deflecting() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 5));
        r.step(&mut ctx);
        // The younger contender is side-buffered, the older goes East.
        assert_eq!(ctx.events.deflections, 0, "buffer absorbs the loser");
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 0);
        assert_eq!(r.occupancy(), 1);
        // Next cycle it re-injects and leaves.
        let mut ctx = StepCtx::new(1);
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert!(r.is_idle());
    }

    #[test]
    fn silver_flit_wins_its_port() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        // The younger flit has suffered more deflections: it is silver
        // and must win East from the older zero-deflection flit.
        let old = flit(7, 0);
        let mut young = flit(7, 9);
        young.deflections = 3;
        ctx.arrivals[Direction::West.index()] = Some(old);
        ctx.arrivals[Direction::North.index()] = Some(young);
        // Fill the buffer so the loser cannot be absorbed silently.
        for i in 0..4 {
            r.buffer
                .push(Parked {
                    flit: flit(15, 100 + i),
                    ready: 50,
                })
                .unwrap();
        }
        r.step(&mut ctx);
        let winner = ctx.out_links[Direction::East.index()].expect("East granted");
        assert_eq!(winner.created, 9, "silver flit takes the productive port");
    }

    #[test]
    fn full_buffer_redirects_its_head() {
        let mut r = router();
        for i in 0..4 {
            r.buffer
                .push(Parked {
                    flit: flit(7, 100 + i),
                    ready: 1000, // far future: only redirection can free it
                })
                .unwrap();
        }
        let mut ctx = StepCtx::new(0);
        r.step(&mut ctx);
        assert_eq!(r.occupancy(), 3, "full buffer forced one flit out");
        assert!(ctx.out_links.iter().flatten().count() == 1);
    }

    #[test]
    fn ejects_oldest_local_arrival() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(5, 4));
        ctx.arrivals[Direction::East.index()] = Some(flit(5, 1));
        r.step(&mut ctx);
        assert_eq!(ctx.ejected.len(), 1, "one PE port");
        assert_eq!(ctx.ejected[0].created, 1, "oldest first");
    }

    #[test]
    fn injection_needs_a_free_slot() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        for d in LINK_DIRECTIONS {
            ctx.arrivals[d.index()] = Some(flit(7, d.index() as u64));
        }
        ctx.injection = Some(flit(9, 50));
        r.step(&mut ctx);
        assert!(!ctx.injected, "four arrivals fill the pipeline");
        let mut ctx = StepCtx::new(1);
        ctx.injection = Some(flit(9, 50));
        r.step(&mut ctx);
        assert!(ctx.injected);
    }

    #[test]
    fn conservation_under_random_churn() {
        let mut r = router();
        for t in 0..500u64 {
            let mut ctx = StepCtx::new(t);
            for d in LINK_DIRECTIONS {
                if (t + d.index() as u64).is_multiple_of(2) {
                    ctx.arrivals[d.index()] = Some(flit((t % 16) as u16, t * 4 + d.index() as u64));
                }
            }
            if t % 3 == 0 {
                ctx.injection = Some(flit(((t + 5) % 16) as u16, t * 4 + 17));
            }
            let arrivals = ctx.arrivals.iter().flatten().count();
            let before = r.occupancy();
            r.step(&mut ctx);
            assert_eq!(
                before + arrivals + usize::from(ctx.injected),
                r.occupancy() + ctx.flits_out(),
                "conservation at t={t}"
            );
        }
    }
}
