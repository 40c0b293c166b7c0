//! Port-preference ranking for bufferless routers.
//!
//! Flit-BLESS assigns every incoming flit *some* output port each cycle:
//! productive ports are preferred, and when none is free the flit is
//! deflected to any free port. [`PortRanking`] is the full preference
//! order over the four link directions for a flit at `current` heading to
//! `dst`; [`free_productive`] uses only its productive prefix (SCARAB drops
//! instead of deflecting, buffered AFC heads wait).

use noc_core::types::{Direction, NodeId, PortSet, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_topology::Mesh;

/// Preference-ordered link directions for a flit at one node, packed in
/// 16 bits (no allocation and no loop — this runs per flit per cycle in
/// every bufferless router).
///
/// Order: productive directions first (the dimension with the larger
/// remaining offset leads, so flits prefer to reduce their longest leg —
/// this mirrors BLESS's "most-beneficial port first" heuristic), then
/// non-productive directions that still have a link, in port-index order.
/// Directions without a link at this node (mesh edge) are excluded.
///
/// The order depends only on the signs of the wrap-aware offsets, on which
/// offset is longer and on which links the node has, so every ranking is
/// one entry of a table built at compile time.
///
/// Layout: bits `2k..2k+2` hold entry `k`'s direction index, bits 8..11
/// the length and bits 12..14 the productive-prefix length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRanking(u16);

/// Table size: sign(dx) × sign(dy) × (|dx| ≥ |dy|) × link mask.
const RANKINGS: usize = 3 * 3 * 2 * 16;

static TABLE: [PortRanking; RANKINGS] = build_table();

const fn build_table() -> [PortRanking; RANKINGS] {
    let mut table = [PortRanking(0); RANKINGS];
    let mut i = 0;
    while i < RANKINGS {
        table[i] = PortRanking::build(i);
        i += 1;
    }
    table
}

impl PortRanking {
    /// The ranking of table entry `i` (see [`PortRanking::lookup`] for the
    /// index).
    const fn build(i: usize) -> PortRanking {
        let links = i % 16;
        let x_leads = (i / 16) % 2 == 1;
        let sy = (i / 32) % 3; // 0: dy < 0, 1: dy == 0, 2: dy > 0
        let sx = i / 96;
        // Direction indices: North 0, East 1, South 2, West 3.
        let x_dir = if sx == 2 { 1 } else { 3 };
        let y_dir = if sy == 2 { 2 } else { 0 };
        let (first, first_on, second, second_on) = if x_leads {
            (x_dir, sx != 1, y_dir, sy != 1)
        } else {
            (y_dir, sy != 1, x_dir, sx != 1)
        };
        // Productive directions first, then the remaining links in port
        // order; `placed` marks the directions already ranked.
        let mut order = [0u16; NUM_LINK_PORTS];
        let (mut len, mut placed) = (0, 0u16);
        if first_on {
            order[len] = first;
            placed |= 1 << first;
            len += 1;
        }
        if second_on {
            order[len] = second;
            placed |= 1 << second;
            len += 1;
        }
        let productive = len;
        let mut dir = 0;
        while dir < NUM_LINK_PORTS as u16 {
            if links & (1 << dir) != 0 && placed & (1 << dir) == 0 {
                order[len] = dir;
                len += 1;
            }
            dir += 1;
        }
        let mut bits = (len as u16) << 8 | (productive as u16) << 12;
        let mut k = 0;
        while k < len {
            bits |= order[k] << (2 * k);
            k += 1;
        }
        PortRanking(bits)
    }

    /// The ranking for a flit at `current` toward `dst` (none productive
    /// at the destination itself).
    #[inline]
    pub fn new(mesh: &Mesh, current: NodeId, dst: NodeId) -> PortRanking {
        let c = mesh.coord_of(current);
        let d = mesh.coord_of(dst);
        let links = mesh.links_at(c);
        let mask = LINK_DIRECTIONS
            .iter()
            .fold(0, |m, dir| m | (links[dir.index()] as usize) << dir.index());
        // Wrap-aware signed deltas: on ring topologies the shorter way
        // around may point away from the raw coordinate difference.
        PortRanking::lookup(mesh.dx(c, d), mesh.dy(c, d), mask)
    }

    /// The ranking for offsets `(dx, dy)` at a node whose links are the
    /// set bits of `links` (bit = direction index).
    #[inline]
    fn lookup(dx: i32, dy: i32, links: usize) -> PortRanking {
        let sx = (dx.signum() + 1) as usize;
        let sy = (dy.signum() + 1) as usize;
        let x_leads = usize::from(dx.abs() >= dy.abs());
        TABLE[((sx * 3 + sy) * 2 + x_leads) * 16 + (links & 15)]
    }

    /// Number of ranked directions.
    #[inline]
    pub fn len(self) -> usize {
        (self.0 >> 8 & 7) as usize
    }

    /// Whether nothing is ranked (never, on a grid of at least 2×2).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Length of the productive prefix: how many directions reduce the
    /// distance to the destination.
    #[inline]
    pub fn productive(self) -> usize {
        (self.0 >> 12 & 3) as usize
    }

    /// The `k`-th preferred direction (`k < len()`).
    #[inline]
    pub fn get(self, k: usize) -> Direction {
        debug_assert!(k < self.len());
        LINK_DIRECTIONS[(self.0 >> (2 * k) & 3) as usize]
    }

    /// The most preferred direction.
    #[inline]
    pub fn first(self) -> Direction {
        self.get(0)
    }

    /// The directions in preference order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = Direction> {
        (0..self.len()).map(move |k| self.get(k))
    }
}

/// Deflection port assignment under dead links: the chosen direction plus
/// whether taking it counts as a deflection. `used` holds the ports taken
/// already this cycle.
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
/// unchanged. `None` only when every ranked port is taken.
#[inline]
pub fn assign_port_with_faults(
    ranking: PortRanking,
    used: PortSet,
    link_down: &[bool; NUM_LINK_PORTS],
    spin: usize,
) -> Option<(Direction, bool)> {
    let productive = ranking.productive();
    let free_live = |d: Direction| !used.contains(d) && !link_down[d.index()];
    if let Some(dir) = (0..productive)
        .map(|k| ranking.get(k))
        .find(|&d| free_live(d))
    {
        return Some((dir, false));
    }
    let len = ranking.len();
    let span = len - productive;
    if span > 0 {
        let blocked_by_dead =
            productive > 0 && (0..productive).all(|k| link_down[ranking.get(k).index()]);
        let start = if blocked_by_dead { spin % span } else { 0 };
        for i in 0..span {
            let k = start + i;
            let dir = ranking.get(productive + if k >= span { k - span } else { k });
            if free_live(dir) {
                return Some((dir, true));
            }
        }
    }
    (0..len)
        .find(|&k| !used.contains(ranking.get(k)))
        .map(|k| (ranking.get(k), k >= productive))
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
    used: PortSet,
    link_down: &[bool; NUM_LINK_PORTS],
) -> Option<Direction> {
    let ranking = PortRanking::new(mesh, current, dst);
    let productive = (0..ranking.productive()).map(|k| ranking.get(k));
    productive
        .clone()
        .find(|&d| !used.contains(d) && !link_down[d.index()])
        .or_else(|| productive.clone().find(|&d| !used.contains(d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::productive_ports;
    use noc_topology::Coord;
    use proptest::prelude::*;

    #[test]
    fn longest_leg_preferred() {
        let m = Mesh::new(8, 8);
        let a = m.node_at(Coord { x: 0, y: 0 });
        let far_x = m.node_at(Coord { x: 6, y: 2 });
        let r = PortRanking::new(&m, a, far_x);
        assert_eq!(r.get(0), Direction::East);
        assert_eq!(r.get(1), Direction::South);
        let far_y = m.node_at(Coord { x: 2, y: 6 });
        let r = PortRanking::new(&m, a, far_y);
        assert_eq!(r.get(0), Direction::South);
        assert_eq!(r.get(1), Direction::East);
    }

    #[test]
    fn corner_node_has_two_candidates() {
        let m = Mesh::new(8, 8);
        let corner = m.node_at(Coord { x: 0, y: 0 });
        let r = PortRanking::new(&m, corner, m.node_at(Coord { x: 3, y: 0 }));
        assert_eq!(r.len(), 2); // East + South exist at the NW corner
        assert_eq!(r.get(0), Direction::East);
    }

    #[test]
    fn interior_node_ranks_all_four() {
        let m = Mesh::new(8, 8);
        let mid = m.node_at(Coord { x: 4, y: 4 });
        let r = PortRanking::new(&m, mid, m.node_at(Coord { x: 7, y: 7 }));
        assert_eq!(r.len(), 4);
        // Non-productive deflection candidates come last.
        assert!(r
            .iter()
            .skip(2)
            .all(|d| matches!(d, Direction::North | Direction::West)));
    }

    #[test]
    fn torus_ranking_prefers_the_wrap_link() {
        // (0,0) -> (7,0) on an 8x8 torus: one hop West around the ring, so
        // West leads the ranking even though the raw delta points East.
        let m = Mesh::torus(8, 8);
        let a = m.node_at(Coord { x: 0, y: 0 });
        let r = PortRanking::new(&m, a, m.node_at(Coord { x: 7, y: 0 }));
        assert_eq!(r.get(0), Direction::West);
        assert_eq!(r.len(), 4, "every torus node has four links");
        // And the productive prefix matches the wrap-aware port set.
        assert_eq!(r.productive(), 1);
    }

    #[test]
    fn productive_count_matches() {
        let m = Mesh::new(8, 8);
        let a = m.node_at(Coord { x: 2, y: 2 });
        let productive = |x, y| PortRanking::new(&m, a, m.node_at(Coord { x, y })).productive();
        assert_eq!(productive(5, 5), 2);
        assert_eq!(productive(2, 5), 1);
        assert_eq!(productive(2, 2), 0);
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
            let r = PortRanking::new(&m, a, b);
            let mut uniq = r.iter().collect::<Vec<_>>();
            uniq.sort_by_key(|d| d.index());
            uniq.dedup();
            prop_assert_eq!(uniq.len(), r.len(), "duplicates in ranking");
            for d in r.iter() {
                prop_assert!(m.neighbor(a, d).is_some(), "ranked port without a link");
            }
            let k = r.productive();
            let prod = productive_ports(&m, a, b);
            for (i, d) in r.iter().enumerate() {
                prop_assert_eq!(i < k, prod.contains(d), "productive prefix mismatch");
            }
        }
    }
}
