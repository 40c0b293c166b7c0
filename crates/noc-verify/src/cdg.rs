//! Channel-dependency-graph (CDG) analysis of a routing function.
//!
//! A channel is one directed link: the output port `dir` of `node`. A flit
//! that holds channel `a` (it arrived over it) and asks for channel `b` at
//! the next router creates the dependency `a → b`. With one buffer class
//! per link and no way out but the next link — a credit-coupled, buffered
//! design — the routing function is deadlock-free exactly when this graph
//! is acyclic (Dally and Seitz). Deflecting and dropping designs escape
//! every cycle by construction and need no such proof.
//!
//! [`dependencies`] lists every dependency the routing function can
//! create: from each source toward each destination it follows every
//! route choice, through [`noc_routing::usable_route`] — the pruning the
//! routers themselves run — so only (channel, destination) states a flit
//! can really reach contribute. A dead link carries nothing: a flit routed
//! into one is lost, not blocked, so it adds no dependency. [`analyse`]
//! returns `Ok` or one witness cycle.

use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_routing::{usable_route, Algorithm};
use noc_topology::Mesh;

/// A directed link: output port `dir` (never `Local`) of `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    pub node: NodeId,
    pub dir: Direction,
}

impl Channel {
    fn index(self) -> usize {
        self.node.index() * NUM_LINK_PORTS + self.dir.index()
    }

    fn from_index(i: usize) -> Channel {
        Channel {
            node: NodeId((i / NUM_LINK_PORTS) as u16),
            dir: LINK_DIRECTIONS[i % NUM_LINK_PORTS],
        }
    }
}

/// Every `(held, requested)` channel pair `algorithm` can create on `mesh`
/// with the output links `link_down[node]` dead, sorted and deduplicated.
///
/// Panics if `link_down` does not have one mask per node.
pub fn dependencies(
    algorithm: Algorithm,
    mesh: &Mesh,
    link_down: &[[bool; NUM_LINK_PORTS]],
) -> Vec<(Channel, Channel)> {
    let nodes = mesh.num_nodes();
    assert_eq!(link_down.len(), nodes, "one dead-link mask per node");
    let channels = nodes * NUM_LINK_PORTS;
    // The live channels a flit at `at` heading for `dst` may take next.
    let next = |at: NodeId, dst: NodeId| {
        let dead = &link_down[at.index()];
        usable_route(algorithm.route(mesh, at, dst), dead)
            .iter()
            .filter(move |&d| d != Direction::Local && !dead[d.index()])
            .map(move |dir| Channel { node: at, dir })
    };
    let mut edges = Vec::new();
    let mut seen = vec![false; channels];
    let mut stack = Vec::new();
    for dst in mesh.nodes() {
        seen.fill(false);
        for src in mesh.nodes() {
            stack.extend(next(src, dst).filter(|c| !std::mem::replace(&mut seen[c.index()], true)));
        }
        // Every channel a flit bound for `dst` can hold, and what it asks
        // for from there.
        while let Some(held) = stack.pop() {
            let at = mesh
                .neighbor(held.node, held.dir)
                .expect("a routing function never leaves the fabric");
            for want in next(at, dst) {
                edges.push((held, want));
                if !std::mem::replace(&mut seen[want.index()], true) {
                    stack.push(want);
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// One cycle of `deps`, as the channels around it in dependency order
/// (each depends on the next, the last on the first), or `None` if the
/// graph is acyclic.
pub fn find_cycle(deps: &[(Channel, Channel)]) -> Option<Vec<Channel>> {
    let n = deps
        .iter()
        .map(|&(a, b)| a.index().max(b.index()) + 1)
        .max()
        .unwrap_or(0);
    let mut adjacency = vec![Vec::new(); n];
    for &(a, b) in deps {
        adjacency[a.index()].push(b.index());
    }
    // Iterative depth-first search; `path` is the grey stack of channels
    // with the position of the next successor to visit.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark = vec![Mark::White; n];
    let mut path: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if mark[root] != Mark::White {
            continue;
        }
        mark[root] = Mark::Grey;
        path.push((root, 0));
        while let Some(top) = path.last_mut() {
            let (v, i) = *top;
            let Some(&w) = adjacency[v].get(i) else {
                mark[v] = Mark::Black;
                path.pop();
                continue;
            };
            top.1 += 1;
            match mark[w] {
                Mark::White => {
                    mark[w] = Mark::Grey;
                    path.push((w, 0));
                }
                Mark::Grey => {
                    let start = path
                        .iter()
                        .position(|&(u, _)| u == w)
                        .expect("grey is on the path");
                    return Some(
                        path[start..]
                            .iter()
                            .map(|&(u, _)| Channel::from_index(u))
                            .collect(),
                    );
                }
                Mark::Black => {}
            }
        }
    }
    None
}

/// `Ok` if `algorithm` on `mesh` with `link_down` has an acyclic channel
/// dependency graph, else one witness cycle (see [`find_cycle`]).
pub fn analyse(
    algorithm: Algorithm,
    mesh: &Mesh,
    link_down: &[[bool; NUM_LINK_PORTS]],
) -> Result<(), Vec<Channel>> {
    match find_cycle(&dependencies(algorithm, mesh, link_down)) {
        Some(cycle) => Err(cycle),
        None => Ok(()),
    }
}

/// `cycle` as router coordinates and output ports in dependency order:
/// `(0,2)E → (1,2)E → … → (7,2)E`.
pub fn describe(mesh: &Mesh, cycle: &[Channel]) -> String {
    let at = |c: &Channel| {
        let xy = mesh.coord_of(c.node);
        format!("({},{}){}", xy.x, xy.y, c.dir)
    };
    cycle.iter().map(at).collect::<Vec<_>>().join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Coord;

    fn healthy(mesh: &Mesh) -> Vec<[bool; NUM_LINK_PORTS]> {
        vec![[false; NUM_LINK_PORTS]; mesh.num_nodes()]
    }

    /// Kill the link `node → dir` in both directions.
    fn kill(mesh: &Mesh, down: &mut [[bool; NUM_LINK_PORTS]], node: NodeId, dir: Direction) {
        let to = mesh.neighbor(node, dir).expect("link exists");
        down[node.index()][dir.index()] = true;
        down[to.index()][dir.opposite().index()] = true;
    }

    fn shapes() -> impl Iterator<Item = (u16, u16)> {
        (2..=8).flat_map(|w| (2..=8).map(move |h| (w, h)))
    }

    #[test]
    fn dor_and_wf_are_acyclic_on_every_mesh() {
        for (w, h) in shapes() {
            let mesh = Mesh::new(w, h);
            for alg in [Algorithm::Dor, Algorithm::WestFirst] {
                let deps = dependencies(alg, &mesh, &healthy(&mesh));
                assert!(!deps.is_empty(), "{w}x{h} {}", alg.name());
                assert_eq!(find_cycle(&deps), None, "{w}x{h} {}", alg.name());
            }
        }
    }

    #[test]
    fn dor_and_wf_stay_acyclic_with_one_dead_link() {
        for (w, h) in shapes() {
            let mesh = Mesh::new(w, h);
            // One horizontal and one vertical link, mid-fabric.
            let at = mesh.node_at(Coord {
                x: (w - 1) / 2,
                y: (h - 1) / 2,
            });
            for dir in [Direction::East, Direction::South] {
                let mut down = healthy(&mesh);
                kill(&mesh, &mut down, at, dir);
                for alg in [Algorithm::Dor, Algorithm::WestFirst] {
                    assert_eq!(
                        analyse(alg, &mesh, &down),
                        Ok(()),
                        "{w}x{h} {} with {}.{dir:?} dead",
                        alg.name(),
                        at.0
                    );
                }
            }
        }
    }

    #[test]
    fn dor_only_turns_from_x_to_y_and_wf_never_turns_west() {
        let mesh = Mesh::new(5, 4);
        let x = |d: Direction| matches!(d, Direction::East | Direction::West);
        for (a, b) in dependencies(Algorithm::Dor, &mesh, &healthy(&mesh)) {
            assert!(x(a.dir) || !x(b.dir), "DOR turned {a:?} -> {b:?}");
        }
        for (a, b) in dependencies(Algorithm::WestFirst, &mesh, &healthy(&mesh)) {
            assert!(
                a.dir == Direction::West || b.dir != Direction::West,
                "WF turned {a:?} -> {b:?}"
            );
        }
    }

    #[test]
    fn dor_on_a_torus_cycles_around_one_ring() {
        let mesh = Mesh::torus(4, 4);
        let cycle = analyse(Algorithm::Dor, &mesh, &healthy(&mesh)).expect_err("wraparound DOR");
        assert!(cycle.len() >= 4, "{cycle:?}");
        // One direction, one row or one column: a wraparound ring.
        let dir = cycle[0].dir;
        assert!(cycle.iter().all(|c| c.dir == dir), "{cycle:?}");
        let coords: Vec<Coord> = cycle.iter().map(|c| mesh.coord_of(c.node)).collect();
        let ring = match dir {
            Direction::East | Direction::West => coords.iter().all(|c| c.y == coords[0].y),
            _ => coords.iter().all(|c| c.x == coords[0].x),
        };
        assert!(ring, "{cycle:?}");
        // And it is a cycle: each channel leads to the node of the next.
        for (i, c) in cycle.iter().enumerate() {
            let next = cycle[(i + 1) % cycle.len()];
            assert_eq!(mesh.neighbor(c.node, c.dir), Some(next.node));
        }
    }

    #[test]
    fn find_cycle_returns_a_real_cycle_of_a_hand_built_graph() {
        let c = |n: u16, dir| Channel {
            node: NodeId(n),
            dir,
        };
        let (a, b, d) = (
            c(0, Direction::East),
            c(1, Direction::South),
            c(3, Direction::West),
        );
        assert_eq!(find_cycle(&[(a, b), (b, d)]), None);
        let cycle = find_cycle(&[(a, b), (b, d), (d, b)]).expect("b <-> d");
        assert_eq!(cycle, vec![b, d]);
        assert_eq!(find_cycle(&[(a, a)]), Some(vec![a]));
    }
}
