//! The nine synthetic traffic patterns of the paper's evaluation
//! (Figs. 7 & 8): Uniform Random (UR), Non-Uniform Random (NUR), Bit
//! Reversal (BR), Butterfly (BF), Complement (CP), Matrix Transpose (MT),
//! Perfect Shuffle (PS), Neighbor (NB) and Tornado (TOR).
//!
//! Bit-permutation patterns (BR, BF, CP, PS) operate on the `log2(N)`-bit
//! node index and therefore require a power-of-two node count; coordinate
//! patterns (MT, NB, TOR) work on any mesh. NUR follows the paper: "NUR
//! creates hot-spot scenarios by injecting 25% additional traffic to a
//! select group of nodes".

use noc_core::types::NodeId;
use noc_core::Rng;
use noc_topology::{Coord, Mesh};
use serde::{Deserialize, Serialize};

/// A synthetic destination pattern.
///
/// ```
/// use noc_traffic::patterns::{BoundPattern, Pattern};
/// use noc_core::{types::NodeId, Rng};
/// use noc_topology::Mesh;
/// let p = BoundPattern::new(Pattern::Complement, Mesh::new(8, 8), 0);
/// let mut rng = Rng::seed_from(0);
/// // Bit-complement: node 5 (000101) talks to node 58 (111010).
/// assert_eq!(p.dest(NodeId(5), &mut rng), Some(NodeId(58)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    UniformRandom,
    NonUniformRandom,
    BitReversal,
    Butterfly,
    Complement,
    MatrixTranspose,
    PerfectShuffle,
    Neighbor,
    Tornado,
}

impl Pattern {
    /// All nine patterns in the paper's plotting order.
    pub const ALL: [Pattern; 9] = [
        Pattern::UniformRandom,
        Pattern::NonUniformRandom,
        Pattern::BitReversal,
        Pattern::Butterfly,
        Pattern::Complement,
        Pattern::MatrixTranspose,
        Pattern::PerfectShuffle,
        Pattern::Neighbor,
        Pattern::Tornado,
    ];

    /// The paper's abbreviation for the pattern.
    pub fn abbrev(self) -> &'static str {
        match self {
            Pattern::UniformRandom => "UR",
            Pattern::NonUniformRandom => "NUR",
            Pattern::BitReversal => "BR",
            Pattern::Butterfly => "BF",
            Pattern::Complement => "CP",
            Pattern::MatrixTranspose => "MT",
            Pattern::PerfectShuffle => "PS",
            Pattern::Neighbor => "NB",
            Pattern::Tornado => "TOR",
        }
    }

    /// Spelled-out lower-case name, the long form [`parse`](Self::parse)
    /// accepts beside the abbreviation.
    pub fn long_name(self) -> &'static str {
        match self {
            Pattern::UniformRandom => "uniform",
            Pattern::NonUniformRandom => "nonuniform",
            Pattern::BitReversal => "bitrev",
            Pattern::Butterfly => "butterfly",
            Pattern::Complement => "complement",
            Pattern::MatrixTranspose => "transpose",
            Pattern::PerfectShuffle => "shuffle",
            Pattern::Neighbor => "neighbor",
            Pattern::Tornado => "tornado",
        }
    }

    /// Parse a pattern name, case-insensitively: the paper's abbreviation,
    /// the long name, or `bit-reversal`.
    pub fn parse(s: &str) -> Option<Pattern> {
        Pattern::ALL.into_iter().find(|p| {
            s.eq_ignore_ascii_case(p.abbrev())
                || s.eq_ignore_ascii_case(p.long_name())
                || (*p == Pattern::BitReversal && s.eq_ignore_ascii_case("bit-reversal"))
        })
    }

    /// Whether the pattern needs randomness per packet.
    pub fn is_random(self) -> bool {
        matches!(self, Pattern::UniformRandom | Pattern::NonUniformRandom)
    }

    /// Whether the pattern requires a power-of-two node count.
    pub fn needs_pow2(self) -> bool {
        matches!(
            self,
            Pattern::BitReversal
                | Pattern::Butterfly
                | Pattern::Complement
                | Pattern::PerfectShuffle
        )
    }

    /// Whether the pattern can run on `mesh`: the bit-permutation patterns
    /// need a power-of-two terminal count. Every entry path asks this
    /// before it builds a network, so [`BoundPattern::new`] never meets a
    /// pattern it cannot bind.
    pub fn check(self, mesh: &Mesh) -> Result<(), String> {
        let n = mesh.num_terminals();
        if self.needs_pow2() && !n.is_power_of_two() {
            return Err(format!(
                "pattern {} needs a power-of-two terminal count; the {}x{} {} has {n}",
                self.abbrev(),
                mesh.width(),
                mesh.height(),
                mesh.topology().name()
            ));
        }
        Ok(())
    }
}

/// A pattern bound to a mesh, with NUR's hot-spot group materialized.
///
/// Patterns are computed in *terminal space*: on the concentrated mesh a
/// `w x h` router grid serves a `2w x 2h` terminal grid, so the pattern
/// maps terminal indices and the result folds back onto routers. On the
/// plain mesh and torus terminals and routers coincide, so nothing
/// changes (the torus wraparound only affects links, not coordinates).
#[derive(Debug, Clone)]
pub struct BoundPattern {
    pattern: Pattern,
    /// The router fabric packets actually traverse.
    mesh: Mesh,
    /// Terminal-space grid the pattern arithmetic runs on (a plain mesh;
    /// identical to the router grid unless the fabric is concentrated).
    tmesh: Mesh,
    bits: u32,
    /// NUR hot-spot terminals (empty for other patterns).
    hotspots: Vec<NodeId>,
}

/// Fraction of nodes in NUR's hot-spot group (8 of 64 on the 8x8 mesh).
const NUR_HOTSPOT_FRACTION: f64 = 0.125;
/// "25% additional traffic" to the hot-spot group.
const NUR_EXTRA_WEIGHT: f64 = 0.25;

impl BoundPattern {
    /// Bind `pattern` to `mesh`. For NUR the hot-spot group is drawn from
    /// `seed` (the same seed gives the same group, as in the paper).
    pub fn new(pattern: Pattern, mesh: Mesh, seed: u64) -> BoundPattern {
        let tmesh = Mesh::new(mesh.terminal_width(), mesh.terminal_height());
        let n = tmesh.num_nodes();
        // Unreachable from a validated plan: `Pattern::check` rejects the
        // shape first on every entry path.
        if pattern.needs_pow2() {
            assert!(
                n.is_power_of_two(),
                "{:?} requires power-of-two terminal count",
                pattern
            );
        }
        let bits = n.trailing_zeros();
        let hotspots = if pattern == Pattern::NonUniformRandom {
            let count = ((n as f64 * NUR_HOTSPOT_FRACTION).round() as usize).max(1);
            let mut rng = Rng::stream(seed, 0x807);
            rng.choose_indices(n, count)
                .into_iter()
                .map(|i| NodeId(i as u16))
                .collect()
        } else {
            Vec::new()
        };
        BoundPattern {
            pattern,
            mesh,
            tmesh,
            bits,
            hotspots,
        }
    }

    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// NUR hot-spot group, as terminal indices (empty for other patterns).
    pub fn hotspots(&self) -> &[NodeId] {
        &self.hotspots
    }

    /// Destination router for a packet injected at router `src`. Returns
    /// `None` when the pattern maps the source to itself (that node
    /// generates no traffic), e.g. on the transpose diagonal, or — on the
    /// concentrated mesh — when source and destination terminals share a
    /// router (delivery is local, no network traffic).
    pub fn dest(&self, src: NodeId, rng: &mut Rng) -> Option<NodeId> {
        let tsrc = if self.mesh.concentration() == 1 {
            src
        } else {
            // The router injects on behalf of its 2x2 terminal block:
            // draw the source terminal uniformly within the block.
            let c = self.mesh.coord_of(src);
            self.tmesh.node_at(Coord {
                x: c.x * 2 + rng.gen_index(2) as u16,
                y: c.y * 2 + rng.gen_index(2) as u16,
            })
        };
        let tdst = self.terminal_dest(tsrc, rng)?;
        let dst = self.mesh.router_of_terminal(self.tmesh.coord_of(tdst));
        if dst == src {
            None
        } else {
            Some(dst)
        }
    }

    /// The pattern map itself, in terminal space.
    fn terminal_dest(&self, src: NodeId, rng: &mut Rng) -> Option<NodeId> {
        let n = self.tmesh.num_nodes();
        let idx = src.index();
        let dst = match self.pattern {
            Pattern::UniformRandom => {
                // Uniform over the other N-1 nodes.
                let mut d = rng.gen_index(n - 1);
                if d >= idx {
                    d += 1;
                }
                NodeId(d as u16)
            }
            Pattern::NonUniformRandom => {
                // Hot-spot group receives 25% additional traffic: with
                // probability w/(1+w) the packet is redirected to a random
                // hot-spot node, otherwise uniform.
                if rng.gen_bool(NUR_EXTRA_WEIGHT / (1.0 + NUR_EXTRA_WEIGHT)) {
                    self.hotspots[rng.gen_index(self.hotspots.len())]
                } else {
                    let mut d = rng.gen_index(n - 1);
                    if d >= idx {
                        d += 1;
                    }
                    NodeId(d as u16)
                }
            }
            Pattern::BitReversal => {
                let rev = (idx as u32).reverse_bits() >> (32 - self.bits);
                NodeId(rev as u16)
            }
            Pattern::Butterfly => {
                // Swap the most and least significant bits of the index.
                let b = self.bits;
                let lo = idx & 1;
                let hi = (idx >> (b - 1)) & 1;
                let mid = idx & !(1 | (1 << (b - 1)));
                NodeId((mid | (lo << (b - 1)) | hi) as u16)
            }
            Pattern::Complement => {
                let mask = (1usize << self.bits) - 1;
                NodeId((!idx & mask) as u16)
            }
            Pattern::MatrixTranspose => {
                let c = self.tmesh.coord_of(src);
                // Transpose is defined on square meshes; clamp for
                // rectangular ones by wrapping into range.
                let t = Coord {
                    x: c.y % self.tmesh.width(),
                    y: c.x % self.tmesh.height(),
                };
                self.tmesh.node_at(t)
            }
            Pattern::PerfectShuffle => {
                // Rotate the index left by one bit.
                let b = self.bits;
                let mask = (1usize << b) - 1;
                NodeId((((idx << 1) | (idx >> (b - 1))) & mask) as u16)
            }
            Pattern::Neighbor => {
                // Nearest neighbour to the East, wrapping at the edge
                // (dimension-wise ring addressing, standard NB definition).
                let c = self.tmesh.coord_of(src);
                let t = Coord {
                    x: (c.x + 1) % self.tmesh.width(),
                    y: c.y,
                };
                self.tmesh.node_at(t)
            }
            Pattern::Tornado => {
                // Half-way minus one around the X ring.
                let k = self.tmesh.width();
                let c = self.tmesh.coord_of(src);
                let t = Coord {
                    x: (c.x + (k / 2).saturating_sub(1).max(1)) % k,
                    y: c.y,
                };
                self.tmesh.node_at(t)
            }
        };
        if dst == src {
            None
        } else {
            Some(dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import wins over both globs (proptest's prelude also exports
    // an `Rng` trait).
    use noc_core::Rng;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    fn bound(p: Pattern) -> BoundPattern {
        BoundPattern::new(p, mesh8(), 7)
    }

    #[test]
    fn every_spelling_parses_to_its_pattern() {
        for p in Pattern::ALL {
            for s in [p.abbrev(), p.long_name()] {
                assert_eq!(Pattern::parse(s), Some(p));
                assert_eq!(Pattern::parse(&s.to_ascii_lowercase()), Some(p));
                assert_eq!(Pattern::parse(&s.to_ascii_uppercase()), Some(p));
            }
        }
        assert_eq!(Pattern::parse("bit-reversal"), Some(Pattern::BitReversal));
        assert_eq!(Pattern::parse("XX"), None);
    }

    #[test]
    fn uniform_never_self() {
        let b = bound(Pattern::UniformRandom);
        let mut rng = Rng::seed_from(1);
        for i in 0..64u16 {
            for _ in 0..50 {
                let d = b.dest(NodeId(i), &mut rng).unwrap();
                assert_ne!(d, NodeId(i));
                assert!(d.index() < 64);
            }
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let b = bound(Pattern::UniformRandom);
        let mut rng = Rng::seed_from(3);
        let mut seen = [false; 64];
        for _ in 0..5000 {
            seen[b.dest(NodeId(0), &mut rng).unwrap().index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 63);
        assert!(!seen[0]);
    }

    #[test]
    fn nur_hotspots_receive_extra_traffic() {
        let b = bound(Pattern::NonUniformRandom);
        assert_eq!(b.hotspots().len(), 8);
        let mut rng = Rng::seed_from(5);
        let mut hot = 0usize;
        let trials = 40_000;
        for t in 0..trials {
            let src = NodeId((t % 64) as u16);
            if let Some(d) = b.dest(src, &mut rng) {
                if b.hotspots().contains(&d) {
                    hot += 1;
                }
            }
        }
        // Expected hot share ≈ baseline (8/64 = 12.5%) + redirected 20% of
        // traffic → ~30%. Uniform would give 12.5%.
        let share = hot as f64 / trials as f64;
        assert!(share > 0.22, "hot share {share}");
        assert!(share < 0.40, "hot share {share}");
    }

    #[test]
    fn bit_reversal_known_values() {
        let b = bound(Pattern::BitReversal);
        let mut rng = Rng::seed_from(0);
        // 6-bit reversal: 0b000001 -> 0b100000 (1 -> 32)
        assert_eq!(b.dest(NodeId(1), &mut rng), Some(NodeId(32)));
        // 0b000110 (6) -> 0b011000 (24)
        assert_eq!(b.dest(NodeId(6), &mut rng), Some(NodeId(24)));
        // palindrome maps to itself -> None: 0b100001 (33)
        assert_eq!(b.dest(NodeId(33), &mut rng), None);
    }

    #[test]
    fn butterfly_swaps_msb_lsb() {
        let b = bound(Pattern::Butterfly);
        let mut rng = Rng::seed_from(0);
        // 0b000001 -> 0b100000
        assert_eq!(b.dest(NodeId(1), &mut rng), Some(NodeId(32)));
        // 0b100110 (38): msb=1,lsb=0 -> 0b000111 (7)
        assert_eq!(b.dest(NodeId(38), &mut rng), Some(NodeId(7)));
        // equal msb/lsb fixed point: 0b100101 (37) msb=1 lsb=1 -> itself
        assert_eq!(b.dest(NodeId(37), &mut rng), None);
    }

    #[test]
    fn complement_is_involution_and_total() {
        let b = bound(Pattern::Complement);
        let mut rng = Rng::seed_from(0);
        for i in 0..64u16 {
            let d = b.dest(NodeId(i), &mut rng).expect("complement never self");
            assert_eq!(d.0, 63 - i);
            let back = b.dest(d, &mut rng).unwrap();
            assert_eq!(back, NodeId(i));
        }
    }

    #[test]
    fn transpose_mirrors_coords() {
        let m = mesh8();
        let b = bound(Pattern::MatrixTranspose);
        let mut rng = Rng::seed_from(0);
        let src = m.node_at(Coord { x: 2, y: 5 });
        let dst = b.dest(src, &mut rng).unwrap();
        assert_eq!(m.coord_of(dst), Coord { x: 5, y: 2 });
        // diagonal is a fixed point
        let diag = m.node_at(Coord { x: 3, y: 3 });
        assert_eq!(b.dest(diag, &mut rng), None);
    }

    #[test]
    fn perfect_shuffle_rotates_left() {
        let b = bound(Pattern::PerfectShuffle);
        let mut rng = Rng::seed_from(0);
        // 0b000011 (3) -> 0b000110 (6)
        assert_eq!(b.dest(NodeId(3), &mut rng), Some(NodeId(6)));
        // 0b100000 (32) -> 0b000001 (1)
        assert_eq!(b.dest(NodeId(32), &mut rng), Some(NodeId(1)));
        // all-zeros / all-ones are fixed points
        assert_eq!(b.dest(NodeId(0), &mut rng), None);
        assert_eq!(b.dest(NodeId(63), &mut rng), None);
    }

    #[test]
    fn neighbor_goes_one_east_with_wrap() {
        let m = mesh8();
        let b = bound(Pattern::Neighbor);
        let mut rng = Rng::seed_from(0);
        let src = m.node_at(Coord { x: 3, y: 1 });
        assert_eq!(b.dest(src, &mut rng), Some(m.node_at(Coord { x: 4, y: 1 })));
        let edge = m.node_at(Coord { x: 7, y: 2 });
        assert_eq!(
            b.dest(edge, &mut rng),
            Some(m.node_at(Coord { x: 0, y: 2 }))
        );
    }

    #[test]
    fn tornado_half_ring() {
        let m = mesh8();
        let b = bound(Pattern::Tornado);
        let mut rng = Rng::seed_from(0);
        // k=8: offset k/2-1 = 3
        let src = m.node_at(Coord { x: 1, y: 6 });
        assert_eq!(b.dest(src, &mut rng), Some(m.node_at(Coord { x: 4, y: 6 })));
    }

    #[test]
    fn deterministic_patterns_are_permutations_modulo_fixed_points() {
        for p in [
            Pattern::BitReversal,
            Pattern::Butterfly,
            Pattern::Complement,
            Pattern::MatrixTranspose,
            Pattern::PerfectShuffle,
            Pattern::Neighbor,
            Pattern::Tornado,
        ] {
            let b = bound(p);
            let mut rng = Rng::seed_from(0);
            let mut seen = std::collections::HashSet::new();
            for i in 0..64u16 {
                if let Some(d) = b.dest(NodeId(i), &mut rng) {
                    assert!(seen.insert(d), "{p:?} maps two sources to {d}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn pow2_patterns_reject_odd_meshes() {
        let _ = BoundPattern::new(Pattern::BitReversal, Mesh::new(6, 6), 0);
    }

    #[test]
    fn cmesh_patterns_run_in_terminal_space() {
        // A 4x4 cmesh serves 64 terminals, so the pow2 patterns are legal
        // even though there are only 16 routers.
        let c = Mesh::cmesh(4, 4);
        let b = BoundPattern::new(Pattern::Complement, c, 7);
        let mut rng = Rng::seed_from(1);
        // Every terminal of router (0,0)'s 2x2 block complements into the
        // opposite corner block, i.e. router (3,3).
        for _ in 0..20 {
            let d = b.dest(NodeId(0), &mut rng).unwrap();
            assert_eq!(c.coord_of(d), Coord { x: 3, y: 3 });
        }
        // Uniform-random destinations stay on the 16 routers; same-router
        // terminal pairs fold to None (local delivery).
        let u = BoundPattern::new(Pattern::UniformRandom, c, 7);
        for i in 0..16u16 {
            for _ in 0..50 {
                if let Some(d) = u.dest(NodeId(i), &mut rng) {
                    assert!(d.index() < 16);
                    assert_ne!(d, NodeId(i));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_dest_on_mesh_and_not_self(pi in 0usize..9, src in 0u16..64, seed in any::<u64>()) {
            let p = Pattern::ALL[pi];
            let b = BoundPattern::new(p, mesh8(), 7);
            let mut rng = Rng::seed_from(seed);
            if let Some(d) = b.dest(NodeId(src), &mut rng) {
                prop_assert!(d.index() < 64);
                prop_assert_ne!(d, NodeId(src));
            }
        }
    }
}
