//! Flit-BLESS: bufferless deflection routing with age-based arbitration
//! (Moscibroda & Mutlu, "A Case for Bufferless Routing in On-Chip
//! Networks", ISCA 2009) — reference \[6\] of the paper.
//!
//! Every incoming flit is assigned *some* free output port every cycle:
//! the oldest flit picks first (and therefore always makes progress toward
//! its destination — the livelock-freedom argument), younger flits may be
//! deflected to non-productive ports. There are no buffers and no flow
//! control; a node may inject only when one of its input ports is idle this
//! cycle. One flit may eject per cycle; a second flit addressed to the same
//! node is deflected and retries.
//!
//! Pipeline: SA/ST + LT (2 stages, same as DXbar, thanks to look-ahead
//! routing).

use noc_core::inline::InlineVec;
use noc_core::types::{NodeId, PortSet, NUM_LINK_PORTS};
use noc_sim::router::{RouterModel, StepCtx};
use noc_topology::Mesh;

/// The Flit-BLESS router. Stateless between cycles (truly bufferless).
pub struct BlessRouter {
    node: NodeId,
    mesh: Mesh,
    /// Link directions that exist at this node.
    num_links: usize,
    /// Dead output links, published by the engine's resilience layer.
    link_down: [bool; NUM_LINK_PORTS],
}

impl BlessRouter {
    pub fn new(node: NodeId, mesh: Mesh) -> BlessRouter {
        let num_links = mesh.link_dirs(node).count();
        BlessRouter {
            node,
            mesh,
            num_links,
            link_down: [false; NUM_LINK_PORTS],
        }
    }
}

impl RouterModel for BlessRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        // Ejection: the oldest flit addressed here leaves the network; any
        // other flit for this node is deflected onward this cycle.
        let mut flits = InlineVec::new();
        ctx.take_arrivals(self.node, &mut flits);

        // Injection: allowed while an input (equivalently output) slot is
        // free at this node.
        if flits.len() < self.num_links {
            if let Some(inj) = ctx.injection {
                // A flit injected at its own destination ejects directly
                // (degenerate, but patterns never produce it).
                flits.push(inj);
                ctx.injected = true;
            }
        }

        // Age-ordered port allocation: oldest first; each flit takes its
        // most-preferred free port, deflecting if no productive port is
        // left.
        // Unstable sort is deterministic here: `age_key` is unique per
        // coexisting flit.
        flits.sort_unstable_by_key(|f| f.age_key());
        ctx.deflection_assign(
            &self.mesh,
            self.node,
            &self.link_down,
            &flits,
            &mut PortSet::default(),
        );
    }

    fn is_idle(&self) -> bool {
        true // truly bufferless: nothing persists between cycles
    }

    fn occupancy(&self) -> usize {
        0
    }

    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        self.link_down = down;
    }

    fn design_name(&self) -> &'static str {
        "Flit-Bless"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::{Flit, PacketId};
    use noc_core::types::Direction;
    use noc_topology::Coord;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn mid_router() -> BlessRouter {
        // (1,1) = node 5: interior, 4 links.
        BlessRouter::new(NodeId(5), mesh())
    }

    fn flit(dst: u16, created: u64) -> Flit {
        Flit::synthetic(PacketId(created), NodeId(0), NodeId(dst), created)
    }

    #[test]
    fn single_flit_takes_productive_port_same_cycle() {
        let mut r = mid_router();
        let mut ctx = StepCtx::new(0);
        // dst 7 = (3,1): East is productive.
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_some());
        assert_eq!(ctx.events.deflections, 0);
        assert_eq!(ctx.events.xbar_traversals, 1);
    }

    #[test]
    fn younger_flit_deflected_on_conflict() {
        let mut r = mid_router();
        let mut ctx = StepCtx::new(0);
        // Both want East only (dst (3,1) => East is the only productive
        // port... rank includes South/North/West as deflections).
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0)); // older
        ctx.arrivals[Direction::North.index()] = Some(flit(7, 5)); // younger
        r.step(&mut ctx);
        let winner = ctx.out_links[Direction::East.index()].expect("East taken");
        assert_eq!(winner.created, 0, "oldest wins");
        // The younger one went somewhere else with a deflection mark.
        assert_eq!(ctx.events.deflections, 1);
        let deflected: Vec<&Flit> = ctx
            .out_links
            .iter()
            .flatten()
            .filter(|f| f.created == 5)
            .collect();
        assert_eq!(deflected.len(), 1);
        assert_eq!(deflected[0].deflections, 1);
    }

    #[test]
    fn one_ejection_per_cycle_rest_deflected() {
        let mut r = mid_router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(5, 0));
        ctx.arrivals[Direction::East.index()] = Some(flit(5, 3));
        r.step(&mut ctx);
        assert_eq!(ctx.ejected.len(), 1);
        assert_eq!(ctx.ejected[0].created, 0, "oldest ejects");
        // The other flit remains in the network.
        assert_eq!(ctx.out_links.iter().flatten().count(), 1);
    }

    #[test]
    fn injection_blocked_when_all_inputs_busy() {
        let mut r = mid_router();
        let mut ctx = StepCtx::new(0);
        for d in [
            Direction::North,
            Direction::East,
            Direction::South,
            Direction::West,
        ] {
            ctx.arrivals[d.index()] = Some(flit(7, d.index() as u64));
        }
        ctx.injection = Some(flit(7, 99));
        r.step(&mut ctx);
        assert!(!ctx.injected);
        assert_eq!(ctx.out_links.iter().flatten().count(), 4);
    }

    #[test]
    fn injection_allowed_with_free_slot() {
        let mut r = mid_router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        ctx.injection = Some(flit(13, 99));
        r.step(&mut ctx);
        assert!(ctx.injected);
        assert_eq!(ctx.out_links.iter().flatten().count(), 2);
    }

    #[test]
    fn corner_node_capacity() {
        // Corner (0,0) = node 0 has 2 links; 2 arrivals block injection.
        let m = mesh();
        let corner = m.node_at(Coord { x: 0, y: 0 });
        let mut r = BlessRouter::new(corner, m);
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::East.index()] = Some(flit(3, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(3, 1));
        ctx.injection = Some(flit(3, 2));
        r.step(&mut ctx);
        assert!(!ctx.injected);
        // Both flits still got ports (the 2 existing links).
        assert_eq!(ctx.out_links.iter().flatten().count(), 2);
    }

    #[test]
    fn dead_link_deflects_rather_than_losing() {
        use noc_core::types::NUM_LINK_PORTS;
        let mut r = mid_router();
        let mut down = [false; NUM_LINK_PORTS];
        down[Direction::East.index()] = true;
        r.set_faulty_links(down);
        let mut ctx = StepCtx::new(0);
        // dst 7 = (3,1): East is productive but dead — the flit must take a
        // live port (counted as a deflection) instead of vanishing.
        ctx.arrivals[Direction::West.index()] = Some(flit(7, 0));
        r.step(&mut ctx);
        assert!(ctx.out_links[Direction::East.index()].is_none());
        assert_eq!(ctx.flits_out(), 1);
        assert_eq!(ctx.events.deflections, 1);
    }

    #[test]
    fn all_flits_always_leave() {
        // Conservation: bufferless => outputs + ejections == arrivals.
        let mut r = mid_router();
        let mut ctx = StepCtx::new(0);
        ctx.arrivals[Direction::North.index()] = Some(flit(5, 0));
        ctx.arrivals[Direction::South.index()] = Some(flit(7, 1));
        ctx.arrivals[Direction::East.index()] = Some(flit(4, 2));
        ctx.arrivals[Direction::West.index()] = Some(flit(6, 3));
        r.step(&mut ctx);
        assert_eq!(ctx.flits_out(), 4);
        assert!(r.is_idle());
    }
}
