//! SCARAB: Single-Cycle Adaptive Routing and Bufferless network
//! (Hayenga, Enright Jerger & Lipasti, MICRO 2009) — reference \[8\] of the
//! paper.
//!
//! Flits are routed minimally adaptively with no buffers. When none of a
//! flit's productive output ports is free, the flit is **dropped** and a
//! NACK travels back to the source over a dedicated circuit-switched NACK
//! network (modelled by the engine as a timed channel with hop-count
//! latency); the source then retransmits from its retransmit buffer. The
//! data network's bandwidth is never wasted on deflected flits.
//!
//! Pipeline: SA/ST + LT (2 stages, look-ahead routing), like DXbar/BLESS.

use noc_core::inline::InlineVec;
use noc_core::types::{Direction, NodeId, PortSet, NUM_LINK_PORTS};
use noc_routing::deflection::free_productive;
use noc_sim::router::{RouterModel, StepCtx};
use noc_topology::Mesh;

/// The SCARAB router. Stateless between cycles.
pub struct ScarabRouter {
    node: NodeId,
    mesh: Mesh,
    /// Dead output links, published by the engine's resilience layer.
    link_down: [bool; NUM_LINK_PORTS],
}

impl ScarabRouter {
    pub fn new(node: NodeId, mesh: Mesh) -> ScarabRouter {
        ScarabRouter {
            node,
            mesh,
            link_down: [false; NUM_LINK_PORTS],
        }
    }
}

impl RouterModel for ScarabRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        // Ejection: oldest flit for this node leaves; additional flits for
        // this node lose the ejection port and are dropped + NACKed.
        // Unstable sort is deterministic: `age_key` is unique per
        // coexisting flit.
        let mut flits = InlineVec::new();
        let ejected_one = ctx.take_arrivals(self.node, &mut flits);
        flits.sort_unstable_by_key(|f| f.age_key());
        for f in flits.iter().filter(|f| f.dst == self.node) {
            ctx.dropped.push(f);
        }

        // Minimal adaptive port allocation, oldest first: only the
        // productive prefix of the ranking is eligible — SCARAB never
        // deflects.
        let mut used = PortSet::EMPTY;
        for f in flits.iter().filter(|f| f.dst != self.node) {
            match free_productive(&self.mesh, self.node, f.dst, used, &self.link_down) {
                Some(dir) => {
                    used.insert(dir);
                    ctx.events.xbar_traversals += 1;
                    debug_assert!(dir != Direction::Local);
                    ctx.out_links[dir.index()] = Some(f);
                }
                None => ctx.dropped.push(f),
            }
        }

        // Injection: lowest priority; needs a free productive port right
        // now, otherwise the source keeps waiting (no drop for fresh
        // injections — they have not consumed network bandwidth yet).
        // A self-addressed flit ejects directly when the ejection port is
        // free.
        if let Some(inj) = ctx.injection {
            if inj.dst == self.node {
                if !ejected_one {
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

    fn is_idle(&self) -> bool {
        true
    }

    fn occupancy(&self) -> usize {
        0
    }

    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        self.link_down = down;
    }

    fn design_name(&self) -> &'static str {
        "SCARAB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::{Flit, PacketId};

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn router() -> ScarabRouter {
        ScarabRouter::new(NodeId(5), mesh())
    }

    fn flit(dst: u16, created: u64) -> Flit {
        Flit::synthetic(PacketId(created), NodeId(0), NodeId(dst), created)
    }

    #[test]
    fn productive_port_taken_when_free() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert!(ctx.dropped.is_empty());
    }

    #[test]
    fn conflict_drops_younger_flit() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        // dst 7 = (3,1): East is the only productive port from (1,1).
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 9));
        r.step(&mut ctx);
        assert_eq!(ctx.out_links[Direction::East.index()].unwrap().created, 0);
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].created, 9);
        assert_eq!(ctx.events.deflections, 0, "SCARAB never deflects");
    }

    #[test]
    fn adaptive_flit_survives_conflict() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        // Older takes East; younger has dst 10=(2,2): East and South both
        // productive, so it adapts to South instead of dropping.
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.arrivals[Direction::North.index()] = Some(flit(10, 9));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert!(ctx.out_links[Direction::South.index()].is_some());
        assert!(ctx.dropped.is_empty());
    }

    #[test]
    fn second_ejection_candidate_dropped() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(5, 0));
        ctx.arrivals[Direction::East.index()] = Some(flit(5, 1));
        r.step(&mut ctx);
        assert_eq!(ctx.ejected.len(), 1);
        assert_eq!(ctx.ejected[0].created, 0);
        assert_eq!(ctx.dropped.len(), 1);
    }

    #[test]
    fn injection_waits_for_free_productive_port() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        // Injection also needs East only.
        ctx.injection = Some(flit(7, 99));
        r.step(&mut ctx);
        assert!(!ctx.injected);
        assert!(ctx.dropped.is_empty(), "waiting injections are not dropped");
        // Next cycle with East free it goes out.
        let mut ctx = StepCtx::new(1);
        ctx.injection = Some(flit(7, 99));
        r.step(&mut ctx);
        assert!(ctx.injected);
    }

    #[test]
    fn flits_never_linger() {
        let mut r = router();
        let mut ctx = StepCtx::new(0);
        for d in [
            Direction::North,
            Direction::East,
            Direction::South,
            Direction::West,
        ] {
            ctx.arrivals[d.index()] = Some(flit(7, d.index() as u64));
        }
        r.step(&mut ctx);
        assert_eq!(ctx.flits_out(), 4);
        assert!(r.is_idle());
        assert_eq!(r.occupancy(), 0);
    }
}
