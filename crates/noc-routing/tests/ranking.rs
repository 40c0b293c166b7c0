//! The packed [`PortRanking`] against the per-flit ranking it replaced,
//! kept here as the reference: the ranking itself, its productive prefix,
//! `free_productive` and `assign_port_with_faults` must agree on every
//! (node, destination) pair of every mesh from 2×2 to 8×8, of four tori
//! with odd rings and half-ring ties, and of a concentrated mesh, under
//! every `used` × `link_down` mask and spin 0..4.

use noc_core::inline::InlineVec;
use noc_core::types::{Direction, NodeId, PortSet, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_routing::deflection::{assign_port_with_faults, free_productive, PortRanking};
use noc_routing::productive_ports;
use noc_topology::Mesh;

/// The ranking as it was computed per flit before the table.
fn reference_rank(mesh: &Mesh, current: NodeId, dst: NodeId) -> InlineVec<Direction, 4> {
    let c = mesh.coord_of(current);
    let d = mesh.coord_of(dst);
    let dx = mesh.dx(c, d);
    let dy = mesh.dy(c, d);
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
    let has_link = mesh.links_at(c);
    for dir in LINK_DIRECTIONS {
        if has_link[dir.index()] && !out.contains(&dir) {
            out.push(dir);
        }
    }
    out
}

fn reference_productive_count(mesh: &Mesh, current: NodeId, dst: NodeId) -> usize {
    if current == dst {
        0
    } else {
        productive_ports(mesh, current, dst)
            .and(PortSet::LINKS)
            .len()
    }
}

fn reference_assign(
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

fn reference_free_productive(
    ranking: &[Direction],
    productive: usize,
    used: &[bool; NUM_LINK_PORTS],
    link_down: &[bool; NUM_LINK_PORTS],
) -> Option<Direction> {
    let productive = &ranking[..productive];
    productive
        .iter()
        .find(|d| !used[d.index()] && !link_down[d.index()])
        .or_else(|| productive.iter().find(|d| !used[d.index()]))
        .copied()
}

fn flags(mask: u8) -> [bool; NUM_LINK_PORTS] {
    [0, 1, 2, 3].map(|b| mask & (1 << b) != 0)
}

/// Every fabric the equivalence test covers.
fn fabrics() -> Vec<Mesh> {
    let mut v = Vec::new();
    for w in 2..=8 {
        for h in 2..=8 {
            v.push(Mesh::new(w, h));
        }
    }
    for (w, h) in [(4, 4), (4, 6), (5, 5), (3, 7)] {
        v.push(Mesh::torus(w, h));
    }
    v.push(Mesh::cmesh(4, 4));
    v
}

#[test]
fn packed_ranking_equals_the_reference_everywhere() {
    for m in fabrics() {
        for a in m.nodes() {
            for b in m.nodes() {
                let r = PortRanking::new(&m, a, b);
                let reference = reference_rank(&m, a, b);
                let k = reference_productive_count(&m, a, b);
                assert_eq!(
                    r.iter().collect::<Vec<_>>(),
                    reference.to_vec(),
                    "{m:?} {a}->{b}"
                );
                assert_eq!(r.productive(), k, "{m:?} {a}->{b}");
                for used in 0..16u8 {
                    for down in 0..16u8 {
                        let (used_flags, down_flags) = (flags(used), flags(down));
                        assert_eq!(
                            free_productive(&m, a, b, PortSet(used), &down_flags),
                            reference_free_productive(&reference, k, &used_flags, &down_flags),
                            "{m:?} {a}->{b} used {used:04b} down {down:04b}"
                        );
                        for spin in 0..4 {
                            assert_eq!(
                                assign_port_with_faults(r, PortSet(used), &down_flags, spin),
                                reference_assign(&reference, k, &used_flags, &down_flags, spin),
                                "{m:?} {a}->{b} used {used:04b} down {down:04b} spin {spin}"
                            );
                        }
                    }
                }
            }
        }
    }
}
