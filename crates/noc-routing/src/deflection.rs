//! Port-preference ranking for bufferless routers.
//!
//! Flit-BLESS assigns every incoming flit *some* output port each cycle:
//! productive ports are preferred, and when none is free the flit is
//! deflected to any free port. [`rank_ports_inline`] produces the full
//! preference order over the four link directions for a flit at `current`
//! heading to `dst`; [`free_productive`] uses only the productive prefix
//! (SCARAB drops instead of deflecting, buffered AFC heads wait).

use crate::productive_ports;
use noc_core::inline::InlineVec;
use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_topology::Mesh;

/// Preference-ordered link directions for a flit at `current` toward `dst`,
/// on the stack (no allocation — this runs per flit per cycle in every
/// bufferless router).
///
/// Order: productive directions first (the dimension with the larger
/// remaining offset leads, so flits prefer to reduce their longest leg —
/// this mirrors BLESS's "most-beneficial port first" heuristic), then
/// non-productive directions that still have a link, in port-index order.
/// Directions without a link at this node (mesh edge) are excluded.
pub fn rank_ports_inline(mesh: &Mesh, current: NodeId, dst: NodeId) -> InlineVec<Direction, 4> {
    let c = mesh.coord_of(current);
    let d = mesh.coord_of(dst);
    // Wrap-aware signed deltas: on ring topologies the shorter way around
    // may point away from the raw coordinate difference.
    let dx = mesh.dx(c, d);
    let dy = mesh.dy(c, d);

    // A productive direction on a mesh always has a link (the destination
    // lies inside the grid, and on a torus every direction has a link), so
    // nothing pushed here needs a reachability filter.
    let mut out: InlineVec<Direction, 4> = InlineVec::new();
    let x_dir = if dx > 0 {
        Direction::East
    } else {
        Direction::West
    };
    let y_dir = if dy > 0 {
        Direction::South
    } else {
        Direction::North
    };
    if dx.abs() >= dy.abs() {
        if dx != 0 {
            out.push(x_dir);
        }
        if dy != 0 {
            out.push(y_dir);
        }
    } else {
        if dy != 0 {
            out.push(y_dir);
        }
        if dx != 0 {
            out.push(x_dir);
        }
    }
    debug_assert!({
        let productive = productive_ports(mesh, current, dst);
        out.iter().all(|p| productive.contains(p))
    });
    debug_assert!(out.iter().all(|p| mesh.neighbor(current, p).is_some()));

    // Which links exist follows from the coordinate already in hand; no
    // neighbour lookup per flit.
    let has_link = mesh.links_at(c);
    for dir in LINK_DIRECTIONS {
        if has_link[dir.index()] && !out.contains(&dir) {
            out.push(dir);
        }
    }
    out
}

/// Deflection port assignment under dead links: the chosen direction plus
/// whether taking it counts as a deflection.
///
/// Preference: (1) a free, live productive port in ranking order; (2) a
/// free, live deflection port — scanned from an offset of `spin` when
/// every productive port is dead, so a flit trapped behind a dead channel
/// tries a different escape direction on each successive deflection
/// instead of ping-ponging deterministically against a neighbour that
/// keeps routing it straight back; (3) any free port, dead included — a
/// bufferless flit must leave, and exiting into a dead link is an
/// accounted loss the NI recovers by retransmission. With no dead links
/// the scan order is exactly the ranking, so healthy-network behaviour is
/// unchanged. `None` only when every port is taken.
pub fn assign_port_with_faults(
    ranking: &[Direction],
    productive: usize,
    used: &[bool; 4],
    link_down: &[bool; NUM_LINK_PORTS],
    spin: usize,
) -> Option<(Direction, bool)> {
    for &dir in &ranking[..productive] {
        if !used[dir.index()] && !link_down[dir.index()] {
            return Some((dir, false));
        }
    }
    let defl = &ranking[productive..];
    if !defl.is_empty() {
        let blocked_by_dead =
            productive > 0 && ranking[..productive].iter().all(|d| link_down[d.index()]);
        let start = if blocked_by_dead {
            spin % defl.len()
        } else {
            0
        };
        for i in 0..defl.len() {
            let dir = defl[(start + i) % defl.len()];
            if !used[dir.index()] && !link_down[dir.index()] {
                return Some((dir, true));
            }
        }
    }
    ranking
        .iter()
        .enumerate()
        .find(|(_, d)| !used[d.index()])
        .map(|(rank, &d)| (d, rank >= productive))
}

/// Best free productive port for a flit at `current` toward `dst`: a live
/// one if any, else a dead one (the flit is doomed under minimal routing
/// anyway — sending it into the dead link lets the engine account the loss
/// once), else `None`.
#[inline]
pub fn free_productive(
    mesh: &Mesh,
    current: NodeId,
    dst: NodeId,
    used: &[bool; NUM_LINK_PORTS],
    link_down: &[bool; NUM_LINK_PORTS],
) -> Option<Direction> {
    let ranking = rank_ports_inline(mesh, current, dst);
    let productive = &ranking[..productive_count(mesh, current, dst)];
    productive
        .iter()
        .find(|d| !used[d.index()] && !link_down[d.index()])
        .or_else(|| productive.iter().find(|d| !used[d.index()]))
        .copied()
}

/// Number of productive entries at the head of [`rank_ports_inline`]'s
/// result.
pub fn productive_count(mesh: &Mesh, current: NodeId, dst: NodeId) -> usize {
    if current == dst {
        0
    } else {
        productive_ports(mesh, current, dst)
            .and(noc_core::types::PortSet::LINKS)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Coord;
    use proptest::prelude::*;

    #[test]
    fn longest_leg_preferred() {
        let m = Mesh::new(8, 8);
        let a = m.node_at(Coord { x: 0, y: 0 });
        let far_x = m.node_at(Coord { x: 6, y: 2 });
        let r = rank_ports_inline(&m, a, far_x);
        assert_eq!(r[0], Direction::East);
        assert_eq!(r[1], Direction::South);
        let far_y = m.node_at(Coord { x: 2, y: 6 });
        let r = rank_ports_inline(&m, a, far_y);
        assert_eq!(r[0], Direction::South);
        assert_eq!(r[1], Direction::East);
    }

    #[test]
    fn corner_node_has_two_candidates() {
        let m = Mesh::new(8, 8);
        let corner = m.node_at(Coord { x: 0, y: 0 });
        let r = rank_ports_inline(&m, corner, m.node_at(Coord { x: 3, y: 0 }));
        assert_eq!(r.len(), 2); // East + South exist at the NW corner
        assert_eq!(r[0], Direction::East);
    }

    #[test]
    fn interior_node_ranks_all_four() {
        let m = Mesh::new(8, 8);
        let mid = m.node_at(Coord { x: 4, y: 4 });
        let r = rank_ports_inline(&m, mid, m.node_at(Coord { x: 7, y: 7 }));
        assert_eq!(r.len(), 4);
        // Non-productive deflection candidates come last.
        assert!(r[2..]
            .iter()
            .all(|d| matches!(d, Direction::North | Direction::West)));
    }

    #[test]
    fn torus_ranking_prefers_the_wrap_link() {
        // (0,0) -> (7,0) on an 8x8 torus: one hop West around the ring, so
        // West leads the ranking even though the raw delta points East.
        let m = Mesh::torus(8, 8);
        let a = m.node_at(Coord { x: 0, y: 0 });
        let r = rank_ports_inline(&m, a, m.node_at(Coord { x: 7, y: 0 }));
        assert_eq!(r[0], Direction::West);
        assert_eq!(r.len(), 4, "every torus node has four links");
        // And the productive prefix matches the wrap-aware port set.
        assert_eq!(productive_count(&m, a, m.node_at(Coord { x: 7, y: 0 })), 1);
    }

    #[test]
    fn productive_count_matches() {
        let m = Mesh::new(8, 8);
        let a = m.node_at(Coord { x: 2, y: 2 });
        assert_eq!(productive_count(&m, a, m.node_at(Coord { x: 5, y: 5 })), 2);
        assert_eq!(productive_count(&m, a, m.node_at(Coord { x: 2, y: 5 })), 1);
        assert_eq!(productive_count(&m, a, a), 0);
    }

    proptest! {
        /// Ranking contains no duplicates, only existing links, and its
        /// productive prefix is exactly the set of productive link ports.
        #[test]
        fn prop_ranking_well_formed(w in 2u16..10, h in 2u16..10, s in any::<u16>(), t in any::<u16>()) {
            let m = Mesh::new(w, h);
            let n = m.num_nodes() as u16;
            let (a, b) = (NodeId(s % n), NodeId(t % n));
            prop_assume!(a != b);
            let r = rank_ports_inline(&m, a, b);
            let mut uniq = r.to_vec();
            uniq.sort_by_key(|d| d.index());
            uniq.dedup();
            prop_assert_eq!(uniq.len(), r.len(), "duplicates in ranking");
            for d in r.iter() {
                prop_assert!(m.neighbor(a, d).is_some(), "ranked port without a link");
            }
            let k = productive_count(&m, a, b);
            let prod = productive_ports(&m, a, b);
            for (i, d) in r.iter().enumerate() {
                prop_assert_eq!(i < k, prod.contains(d), "productive prefix mismatch");
            }
        }
    }
}
