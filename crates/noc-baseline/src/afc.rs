//! AFC-style adaptive flow control router (extension).
//!
//! The paper's related work (\[9\] Jafri et al., MICRO 2010) proposes
//! switching a router between *bufferless* (deflection) and *buffered*
//! operation based on traffic, and the paper closes by noting that "the
//! adaptive flow control techniques are complementary to our techniques".
//! This module implements a simplified AFC router so that claim can be
//! tested:
//!
//! * in **bufferless mode** the router behaves exactly like Flit-BLESS
//!   (buffers power-gated, single-cycle deflection switching);
//! * in **buffered mode** arrivals are parked in per-input FIFOs and served
//!   oldest-first to productive ports; when a FIFO is full the arrival
//!   falls back to deflection (so no cross-router flow-control handshake is
//!   needed — the simplification relative to the real AFC, which
//!   renegotiates credits per link);
//! * the mode switches per router on an EWMA of the local arrival rate,
//!   with hysteresis, and only returns to bufferless once the FIFOs have
//!   drained (AFC's drain phase).

use noc_core::flit::Flit;
use noc_core::inline::InlineVec;
use noc_core::queue::FixedQueue;
use noc_core::types::{NodeId, PortSet, NUM_LINK_PORTS};
use noc_routing::deflection::free_productive;
use noc_sim::datapath::Parked;
use noc_sim::router::{RouterModel, StepCtx};
use noc_topology::Mesh;

/// Operating mode of the AFC router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfcMode {
    Bufferless,
    Buffered,
}

/// EWMA weight for the congestion estimate.
const EWMA_ALPHA: f64 = 0.05;
/// Arrivals/cycle above which the router turns its buffers on.
const SWITCH_UP: f64 = 1.6;
/// Arrivals/cycle below which (with drained buffers) it turns them off.
const SWITCH_DOWN: f64 = 0.9;

/// The adaptive bufferless/buffered router.
pub struct AfcRouter {
    node: NodeId,
    mesh: Mesh,
    num_links: usize,
    buffers: Vec<FixedQueue<Parked>>,
    mode: AfcMode,
    congestion: f64,
    /// Mode transitions taken (diagnostics).
    transitions: u64,
    /// Dead output links, published by the engine's resilience layer.
    link_down: [bool; NUM_LINK_PORTS],
}

impl AfcRouter {
    pub fn new(node: NodeId, mesh: Mesh, depth: usize) -> AfcRouter {
        AfcRouter {
            node,
            mesh,
            num_links: mesh.link_dirs(node).count(),
            buffers: (0..4).map(|_| FixedQueue::new(depth)).collect(),
            mode: AfcMode::Bufferless,
            congestion: 0.0,
            transitions: 0,
            link_down: [false; NUM_LINK_PORTS],
        }
    }

    pub fn mode(&self) -> AfcMode {
        self.mode
    }

    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    fn update_mode(&mut self, arrivals: usize) {
        self.congestion = (1.0 - EWMA_ALPHA) * self.congestion + EWMA_ALPHA * arrivals as f64;
        match self.mode {
            AfcMode::Bufferless if self.congestion > SWITCH_UP => {
                self.mode = AfcMode::Buffered;
                self.transitions += 1;
            }
            AfcMode::Buffered
                if self.congestion < SWITCH_DOWN && self.buffers.iter().all(|b| b.is_empty()) =>
            {
                self.mode = AfcMode::Bufferless;
                self.transitions += 1;
            }
            _ => {}
        }
    }
}

impl RouterModel for AfcRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        // Ejection (both modes): the oldest flit for this node leaves,
        // whether it arrives on a link or waits at a FIFO head.
        let mut arrivals = InlineVec::new();
        let mut ejected = ctx.take_arrivals(self.node, &mut arrivals);
        self.update_mode(arrivals.len() + usize::from(ejected));

        let mut used = PortSet::EMPTY;
        match self.mode {
            AfcMode::Bufferless => {
                // Pure Flit-BLESS.
                if arrivals.len() < self.num_links {
                    if let Some(inj) = ctx.injection {
                        arrivals.push(inj);
                        ctx.injected = true;
                    }
                }
                // Unstable sort is deterministic: `age_key` is unique per
                // coexisting flit.
                arrivals.sort_unstable_by_key(|f| f.age_key());
                ctx.deflection_assign(&self.mesh, self.node, &self.link_down, &arrivals, &mut used);
            }
            AfcMode::Buffered => {
                // Arrivals park in the least-full FIFO (AFC's buffers act
                // as a local pool); a full pool falls back to deflection
                // for that arrival.
                // At most one overflow per arrival, four in all.
                let mut overflow: InlineVec<Flit, 4> = InlineVec::new();
                for flit in arrivals.iter() {
                    let q = self
                        .buffers
                        .iter_mut()
                        .min_by_key(|q| q.len())
                        .expect("four FIFOs");
                    if let Err(f) = ctx.park(self.node, q, flit) {
                        overflow.push(f);
                    }
                }

                // Overflowed arrivals must leave THIS cycle: deflection-
                // assign them first so they are guaranteed a port (their
                // count never exceeds the link count), before FIFO heads
                // take the leftovers.
                overflow.sort_unstable_by_key(|f| f.age_key());
                ctx.deflection_assign(&self.mesh, self.node, &self.link_down, &overflow, &mut used);

                // Ready FIFO heads compete for productive ports, oldest
                // first (heads written this cycle wait until the next one).
                let mut heads: InlineVec<(usize, Flit), 4> = self
                    .buffers
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        b.front()
                            .filter(|p| p.ready <= ctx.cycle)
                            .map(|p| (i, p.flit))
                    })
                    .collect();
                heads.sort_unstable_by_key(|(_, f)| f.age_key());
                for (i, f) in heads.iter() {
                    if f.dst == self.node {
                        if !ejected {
                            let f = ctx.unpark(self.node, &mut self.buffers[i]);
                            ctx.eject(f.expect("head exists"));
                            ejected = true;
                        }
                        continue;
                    }
                    let free = free_productive(&self.mesh, self.node, f.dst, used, &self.link_down);
                    if let Some(dir) = free {
                        used.insert(dir);
                        let f = ctx.unpark(self.node, &mut self.buffers[i]);
                        ctx.events.xbar_traversals += 1;
                        ctx.out_links[dir.index()] = Some(f.expect("head exists"));
                    }
                }

                // Injection: lowest priority, needs a free productive port.
                if let Some(inj) = ctx.injection {
                    if inj.dst == self.node {
                        if !ejected {
                            ctx.eject(inj);
                            ctx.injected = true;
                        }
                    } else if let Some(dir) =
                        free_productive(&self.mesh, self.node, inj.dst, used, &self.link_down)
                    {
                        ctx.events.xbar_traversals += 1;
                        ctx.out_links[dir.index()] = Some(inj);
                        ctx.injected = true;
                    }
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.buffers.iter().all(|b| b.is_empty())
    }

    fn occupancy(&self) -> usize {
        self.buffers.iter().map(|b| b.len()).sum()
    }

    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        self.link_down = down;
    }

    fn design_name(&self) -> &'static str {
        "AFC"
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

    fn router() -> AfcRouter {
        AfcRouter::new(NodeId(5), mesh(), 4)
    }

    fn flit(dst: u16, created: u64) -> Flit {
        Flit::synthetic(PacketId(created), NodeId(0), NodeId(dst), created)
    }

    #[test]
    fn starts_bufferless_and_behaves_like_bless() {
        let mut r = router();
        assert_eq!(r.mode(), AfcMode::Bufferless);
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 5));
        r.step(&mut ctx);
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 0);
        assert_eq!(
            ctx.events.deflections, 1,
            "loser deflects in bufferless mode"
        );
        assert!(r.is_idle());
    }

    #[test]
    fn sustained_load_switches_to_buffered() {
        let mut r = router();
        for t in 0..200u64 {
            let mut ctx = StepCtx::new(t);
            for d in LINK_DIRECTIONS {
                ctx.arrivals[d.index()] = Some(flit(7, t * 4 + d.index() as u64));
            }
            r.step(&mut ctx);
            if r.mode() == AfcMode::Buffered {
                break;
            }
        }
        assert_eq!(r.mode(), AfcMode::Buffered, "EWMA never tripped");
        assert!(r.transitions() >= 1);
    }

    #[test]
    fn buffered_mode_parks_conflicting_flits_instead_of_deflecting() {
        let mut r = router();
        // Force buffered mode.
        r.mode = AfcMode::Buffered;
        r.congestion = 3.0;
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 9));
        r.step(&mut ctx);
        // Both arrivals parked this cycle (BW), no deflection.
        assert_eq!(ctx.events.deflections, 0);
        assert_eq!(r.occupancy(), 2);
        // Next cycle one head wins East.
        let mut ctx = StepCtx::new(1);
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert_eq!(r.occupancy(), 1);
    }

    #[test]
    fn returns_to_bufferless_after_drain() {
        let mut r = router();
        r.mode = AfcMode::Buffered;
        r.congestion = 3.0;
        // Quiet cycles: EWMA decays, buffers stay empty -> mode flips back.
        for t in 0..200u64 {
            let mut ctx = StepCtx::new(t);
            r.step(&mut ctx);
        }
        assert_eq!(r.mode(), AfcMode::Bufferless);
    }

    #[test]
    fn overflow_falls_back_to_deflection() {
        let mut r = router();
        r.mode = AfcMode::Buffered;
        r.congestion = 3.0;
        // Fill all FIFOs (4 x 4 = 16 slots) with East-bound flits whose
        // output we never free... East frees 1/cycle; pump 4 arrivals/cycle.
        let mut deflected = false;
        for t in 0..40u64 {
            let mut ctx = StepCtx::new(t);
            for d in LINK_DIRECTIONS {
                ctx.arrivals[d.index()] = Some(flit(7, t * 4 + d.index() as u64));
            }
            r.step(&mut ctx);
            if ctx.events.deflections > 0 {
                deflected = true;
                break;
            }
        }
        assert!(deflected, "full FIFOs must fall back to deflection");
    }

    #[test]
    fn conservation_in_both_modes() {
        let mut r = router();
        for t in 0..500u64 {
            let mut ctx = StepCtx::new(t);
            for d in LINK_DIRECTIONS {
                if (t + d.index() as u64).is_multiple_of(2) {
                    ctx.arrivals[d.index()] = Some(flit((t % 16) as u16, t * 4 + d.index() as u64));
                }
            }
            let arrivals = ctx.arrivals.iter().flatten().count();
            let before = r.occupancy();
            r.step(&mut ctx);
            assert_eq!(
                before + arrivals + usize::from(ctx.injected),
                r.occupancy() + ctx.flits_out(),
                "conservation at t={t} (mode {:?})",
                r.mode()
            );
        }
    }
}
