//! 2D-mesh coordinate arithmetic (plain mesh, torus, concentrated mesh).

use noc_core::config::{SimConfig, Topology};
use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use serde::{Deserialize, Serialize};

/// (x, y) position on the mesh; x grows East, y grows South, origin at the
/// North-West corner. This matches the paper's compass convention: "x+" is
/// East, "y+" is South.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    pub x: u16,
    pub y: u16,
}

/// A `width x height` 2D router grid with bidirectional links between
/// 4-neighbours. The [`Topology`] decides whether links wrap at the edges
/// (torus) and how many traffic terminals each router serves (cmesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    width: u16,
    height: u16,
    topology: Topology,
}

impl Mesh {
    /// Create a plain 2D mesh; panics on degenerate dimensions (the
    /// smallest network with routing decisions is 2x2).
    pub fn new(width: u16, height: u16) -> Mesh {
        Mesh::with_topology(width, height, Topology::Mesh)
    }

    /// Create a 2D torus (wraparound links on both axes).
    pub fn torus(width: u16, height: u16) -> Mesh {
        Mesh::with_topology(width, height, Topology::Torus)
    }

    /// Create a concentrated mesh (4 terminals per router).
    pub fn cmesh(width: u16, height: u16) -> Mesh {
        Mesh::with_topology(width, height, Topology::CMesh)
    }

    /// Create a grid with an explicit topology.
    pub fn with_topology(width: u16, height: u16, topology: Topology) -> Mesh {
        assert!(width >= 2 && height >= 2, "mesh must be at least 2x2");
        assert!(
            (width as usize) * (height as usize) <= u16::MAX as usize,
            "too many nodes for NodeId"
        );
        Mesh {
            width,
            height,
            topology,
        }
    }

    /// The grid a [`SimConfig`] describes — the one constructor every
    /// engine/facade call site should use, so the config's topology axis
    /// reaches routing, verification and traffic generation.
    pub fn for_config(cfg: &SimConfig) -> Mesh {
        Mesh::with_topology(cfg.width, cfg.height, cfg.topology)
    }

    #[inline]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Traffic terminals per router (4 on the cmesh, 1 otherwise).
    #[inline]
    pub fn concentration(&self) -> u16 {
        self.topology.concentration()
    }

    /// Shortest signed x-displacement from `a` to `b`: positive = East.
    /// On the torus the shorter ring direction wins; an exact half-ring
    /// tie breaks East (positive), deterministically.
    #[inline]
    pub fn dx(&self, a: Coord, b: Coord) -> i32 {
        Self::ring_delta(a.x, b.x, self.width, self.topology == Topology::Torus)
    }

    /// Shortest signed y-displacement from `a` to `b`: positive = South.
    /// Torus ties break South (positive).
    #[inline]
    pub fn dy(&self, a: Coord, b: Coord) -> i32 {
        Self::ring_delta(a.y, b.y, self.height, self.topology == Topology::Torus)
    }

    #[inline]
    fn ring_delta(from: u16, to: u16, len: u16, wrap: bool) -> i32 {
        let d = to as i32 - from as i32;
        if !wrap {
            return d;
        }
        let len = len as i32;
        // Normalize into (-len/2, len/2]: the shorter ring direction, with
        // the exact half-ring tie deterministically positive (East/South).
        let mut d = d.rem_euclid(len);
        if d > len / 2 {
            d -= len;
        }
        d
    }

    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    #[inline]
    pub fn height(&self) -> u16 {
        self.height
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Row-major node id for a coordinate.
    #[inline]
    pub fn node_at(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.width && c.y < self.height);
        NodeId(c.y * self.width + c.x)
    }

    /// Coordinate of a node id.
    ///
    /// Every routing decision decomposes node ids, so this is one of the
    /// hottest functions in the simulator; the power-of-two fast path
    /// replaces two hardware divisions with mask/shift for the common
    /// 4x4/8x8/16x16 meshes.
    #[inline]
    pub fn coord_of(&self, n: NodeId) -> Coord {
        debug_assert!((n.0 as usize) < self.num_nodes());
        let w = self.width;
        if w.is_power_of_two() {
            Coord {
                x: n.0 & (w - 1),
                y: n.0 >> w.trailing_zeros(),
            }
        } else {
            Coord {
                x: n.0 % w,
                y: n.0 / w,
            }
        }
    }

    /// Neighbour in a cardinal direction, or `None` at the mesh edge.
    /// On the torus every cardinal direction has a neighbour (wraparound).
    /// `Direction::Local` has no neighbour.
    pub fn neighbor(&self, n: NodeId, d: Direction) -> Option<NodeId> {
        let c = self.coord_of(n);
        let wrap = self.topology == Topology::Torus;
        let nc = match d {
            Direction::North if c.y > 0 => Coord { x: c.x, y: c.y - 1 },
            Direction::North if wrap => Coord {
                x: c.x,
                y: self.height - 1,
            },
            Direction::South if c.y + 1 < self.height => Coord { x: c.x, y: c.y + 1 },
            Direction::South if wrap => Coord { x: c.x, y: 0 },
            Direction::East if c.x + 1 < self.width => Coord { x: c.x + 1, y: c.y },
            Direction::East if wrap => Coord { x: 0, y: c.y },
            Direction::West if c.x > 0 => Coord { x: c.x - 1, y: c.y },
            Direction::West if wrap => Coord {
                x: self.width - 1,
                y: c.y,
            },
            _ => return None,
        };
        Some(self.node_at(nc))
    }

    /// Which of the four links exist at coordinate `c`, in port-index order
    /// (North, East, South, West): [`neighbor`](Self::neighbor)`.is_some()`
    /// without building the neighbour, for per-flit callers that already
    /// hold the coordinate.
    #[inline]
    pub fn links_at(&self, c: Coord) -> [bool; NUM_LINK_PORTS] {
        let wrap = self.topology == Topology::Torus;
        [
            wrap || c.y > 0,
            wrap || c.x + 1 < self.width,
            wrap || c.y + 1 < self.height,
            wrap || c.x > 0,
        ]
    }

    /// Minimal hop distance (Manhattan; shortest-ring on the torus).
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        self.dx(ca, cb).unsigned_abs() + self.dy(ca, cb).unsigned_abs()
    }

    /// All directed links as `(from, direction, to)` triples, in node order.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, Direction, NodeId)> + '_ {
        (0..self.num_nodes() as u16).flat_map(move |i| {
            let n = NodeId(i);
            LINK_DIRECTIONS
                .into_iter()
                .filter_map(move |d| self.neighbor(n, d).map(|to| (n, d, to)))
        })
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u16).map(NodeId)
    }

    /// Whether the node is on the mesh boundary (relevant for the fairness
    /// discussion: edge-injected flits age faster through the centre). The
    /// torus has no boundary.
    pub fn is_edge(&self, n: NodeId) -> bool {
        if self.topology == Topology::Torus {
            return false;
        }
        let c = self.coord_of(n);
        c.x == 0 || c.y == 0 || c.x + 1 == self.width || c.y + 1 == self.height
    }

    /// Directions whose link exists at this node.
    pub fn link_dirs(&self, n: NodeId) -> impl Iterator<Item = Direction> + '_ {
        LINK_DIRECTIONS
            .into_iter()
            .filter(move |&d| self.neighbor(n, d).is_some())
    }

    /// Terminal-grid width: `2 * width` on the cmesh (each router serves a
    /// 2x2 block of terminals), `width` otherwise.
    pub fn terminal_width(&self) -> u16 {
        match self.topology {
            Topology::CMesh => self.width * 2,
            _ => self.width,
        }
    }

    /// Terminal-grid height (`2 * height` on the cmesh).
    pub fn terminal_height(&self) -> u16 {
        match self.topology {
            Topology::CMesh => self.height * 2,
            _ => self.height,
        }
    }

    /// Total traffic terminals (`concentration() * num_nodes()`).
    pub fn num_terminals(&self) -> usize {
        self.num_nodes() * self.concentration() as usize
    }

    /// The router serving a terminal coordinate: on the cmesh terminal
    /// `(tx, ty)` folds onto router `(tx/2, ty/2)`; on other topologies
    /// terminals and routers coincide.
    pub fn router_of_terminal(&self, t: Coord) -> NodeId {
        debug_assert!(t.x < self.terminal_width() && t.y < self.terminal_height());
        match self.topology {
            Topology::CMesh => self.node_at(Coord {
                x: t.x / 2,
                y: t.y / 2,
            }),
            _ => self.node_at(t),
        }
    }

    /// Average minimal hop count over all (src != dst) pairs — the uniform
    /// random expected distance, useful for capacity sanity checks.
    pub fn average_distance(&self) -> f64 {
        let n = self.num_nodes();
        let mut total = 0u64;
        for a in self.nodes() {
            for b in self.nodes() {
                if a != b {
                    total += self.hop_distance(a, b) as u64;
                }
            }
        }
        total as f64 / (n as f64 * (n as f64 - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn coord_node_roundtrip() {
        let m = mesh8();
        for n in m.nodes() {
            assert_eq!(m.node_at(m.coord_of(n)), n);
        }
    }

    #[test]
    fn corner_neighbors() {
        let m = mesh8();
        let nw = m.node_at(Coord { x: 0, y: 0 });
        assert_eq!(m.neighbor(nw, Direction::North), None);
        assert_eq!(m.neighbor(nw, Direction::West), None);
        assert_eq!(m.neighbor(nw, Direction::East), Some(NodeId(1)));
        assert_eq!(m.neighbor(nw, Direction::South), Some(NodeId(8)));
        assert_eq!(m.neighbor(nw, Direction::Local), None);
    }

    #[test]
    fn neighbor_is_symmetric() {
        let m = mesh8();
        for (from, d, to) in m.links() {
            assert_eq!(m.neighbor(to, d.opposite()), Some(from));
        }
    }

    #[test]
    fn link_count_8x8() {
        // 2 * (w*(h-1) + h*(w-1)) directed links = 2*(56+56) = 224.
        assert_eq!(mesh8().links().count(), 224);
    }

    #[test]
    fn hop_distance_matches_manhattan() {
        let m = mesh8();
        let a = m.node_at(Coord { x: 1, y: 2 });
        let b = m.node_at(Coord { x: 6, y: 7 });
        assert_eq!(m.hop_distance(a, b), 10);
        assert_eq!(m.hop_distance(a, a), 0);
    }

    #[test]
    fn edges_detected() {
        let m = mesh8();
        assert!(m.is_edge(m.node_at(Coord { x: 0, y: 3 })));
        assert!(m.is_edge(m.node_at(Coord { x: 7, y: 7 })));
        assert!(!m.is_edge(m.node_at(Coord { x: 3, y: 4 })));
    }

    #[test]
    fn average_distance_8x8() {
        // Closed form for a k-ary 2-mesh over distinct pairs:
        // 2 * (k^2-1)/(3k) * N/(N-1) = 5.25 * 64/63 = 16/3 for k = 8.
        let avg = mesh8().average_distance();
        assert!((avg - 16.0 / 3.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn interior_node_has_four_links() {
        let m = mesh8();
        let mid = m.node_at(Coord { x: 4, y: 4 });
        assert_eq!(m.link_dirs(mid).count(), 4);
        let corner = m.node_at(Coord { x: 0, y: 0 });
        assert_eq!(m.link_dirs(corner).count(), 2);
    }

    #[test]
    fn links_at_agrees_with_neighbor_on_every_topology() {
        for m in [
            mesh8(),
            Mesh::new(5, 3),
            Mesh::torus(4, 6),
            Mesh::cmesh(4, 4),
        ] {
            for n in m.nodes() {
                let links = m.links_at(m.coord_of(n));
                for d in LINK_DIRECTIONS {
                    assert_eq!(
                        links[d.index()],
                        m.neighbor(n, d).is_some(),
                        "{m:?} {n} {d:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_mesh_rejected() {
        let _ = Mesh::new(1, 8);
    }

    #[test]
    fn torus_neighbors_wrap_and_stay_symmetric() {
        let t = Mesh::torus(8, 8);
        let nw = t.node_at(Coord { x: 0, y: 0 });
        assert_eq!(
            t.neighbor(nw, Direction::North),
            Some(t.node_at(Coord { x: 0, y: 7 }))
        );
        assert_eq!(
            t.neighbor(nw, Direction::West),
            Some(t.node_at(Coord { x: 7, y: 0 }))
        );
        assert_eq!(t.neighbor(nw, Direction::Local), None);
        for (from, d, to) in t.links() {
            assert_eq!(t.neighbor(to, d.opposite()), Some(from));
        }
        // Every node has all four links: 4 * 64 directed links.
        assert_eq!(t.links().count(), 256);
        for n in t.nodes() {
            assert_eq!(t.link_dirs(n).count(), 4);
            assert!(!t.is_edge(n));
        }
    }

    #[test]
    fn torus_hop_distance_takes_the_short_ring() {
        let t = Mesh::torus(8, 8);
        let a = t.node_at(Coord { x: 0, y: 0 });
        let b = t.node_at(Coord { x: 7, y: 7 });
        // One wrap hop per axis instead of 7 + 7.
        assert_eq!(t.hop_distance(a, b), 2);
        // Exact half-ring: still 4, and the delta tie-breaks positive.
        let c = t.node_at(Coord { x: 4, y: 0 });
        assert_eq!(t.hop_distance(a, c), 4);
        assert_eq!(t.dx(Coord { x: 0, y: 0 }, Coord { x: 4, y: 0 }), 4);
        assert_eq!(t.dx(Coord { x: 0, y: 0 }, Coord { x: 5, y: 0 }), -3);
        assert_eq!(t.dy(Coord { x: 0, y: 0 }, Coord { x: 0, y: 6 }), -2);
        // The plain mesh keeps raw deltas.
        let m = mesh8();
        assert_eq!(m.dx(Coord { x: 0, y: 0 }, Coord { x: 7, y: 0 }), 7);
        assert_eq!(m.hop_distance(a, b), 14);
    }

    #[test]
    fn torus_average_distance_is_below_mesh() {
        // Wraparound strictly shortens the average UR path: k/2 per axis
        // vs ~k/3 — 4.0 vs 16/3 on the 8x8 (over distinct pairs: *64/63).
        let t = Mesh::torus(8, 8);
        let expect = 4.0 * 64.0 / 63.0;
        assert!((t.average_distance() - expect).abs() < 1e-9);
        assert!(t.average_distance() < mesh8().average_distance());
    }

    #[test]
    fn cmesh_terminal_folding() {
        let c = Mesh::cmesh(4, 4);
        assert_eq!(c.concentration(), 4);
        assert_eq!(c.terminal_width(), 8);
        assert_eq!(c.terminal_height(), 8);
        assert_eq!(c.num_terminals(), 64);
        assert_eq!(c.num_nodes(), 16);
        // Terminal (5, 3) → router (2, 1).
        assert_eq!(
            c.router_of_terminal(Coord { x: 5, y: 3 }),
            c.node_at(Coord { x: 2, y: 1 })
        );
        // A 2x2 terminal block maps to one router.
        for (tx, ty) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            assert_eq!(
                c.router_of_terminal(Coord { x: tx, y: ty }),
                c.node_at(Coord { x: 0, y: 0 })
            );
        }
        // Router links are plain-mesh links (no wrap).
        assert_eq!(
            c.neighbor(c.node_at(Coord { x: 0, y: 0 }), Direction::West),
            None
        );
        // Non-concentrated topologies are identity maps.
        let m = mesh8();
        assert_eq!(m.num_terminals(), 64);
        assert_eq!(
            m.router_of_terminal(Coord { x: 5, y: 3 }),
            m.node_at(Coord { x: 5, y: 3 })
        );
    }

    #[test]
    fn for_config_carries_the_topology() {
        use noc_core::config::{SimConfig, Topology};
        let cfg = SimConfig {
            width: 4,
            height: 6,
            topology: Topology::Torus,
            ..SimConfig::default()
        };
        let m = Mesh::for_config(&cfg);
        assert_eq!(m.width(), 4);
        assert_eq!(m.height(), 6);
        assert_eq!(m.topology(), Topology::Torus);
        assert_eq!(Mesh::for_config(&SimConfig::default()), Mesh::new(8, 8));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_and_symmetry(w in 2u16..12, h in 2u16..12, xi in 0u16..12, yi in 0u16..12) {
            let m = Mesh::new(w, h);
            let c = Coord { x: xi % w, y: yi % h };
            let n = m.node_at(c);
            prop_assert_eq!(m.coord_of(n), c);
            for d in noc_core::types::LINK_DIRECTIONS {
                if let Some(nb) = m.neighbor(n, d) {
                    prop_assert_eq!(m.neighbor(nb, d.opposite()), Some(n));
                    prop_assert_eq!(m.hop_distance(n, nb), 1);
                }
            }
        }

        #[test]
        fn prop_triangle_inequality(w in 2u16..10, h in 2u16..10, seed in any::<u64>()) {
            let m = Mesh::new(w, h);
            let mut r = noc_core::Rng::seed_from(seed);
            let n = m.num_nodes() as u64;
            let a = NodeId(r.gen_range(n) as u16);
            let b = NodeId(r.gen_range(n) as u16);
            let c = NodeId(r.gen_range(n) as u16);
            prop_assert!(m.hop_distance(a, c) <= m.hop_distance(a, b) + m.hop_distance(b, c));
        }
    }
}
