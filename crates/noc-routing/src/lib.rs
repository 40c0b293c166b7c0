//! Routing algorithms used in the paper's evaluation.
//!
//! * [`dor`] — dimension-ordered (XY) routing, the paper's "DOR";
//! * [`westfirst`] — West-First minimal adaptive routing, the paper's "WF";
//! * [`deflection`] — port-preference ranking for the bufferless designs
//!   (Flit-BLESS deflects, SCARAB drops when no productive port is free).
//!
//! All functions are pure: given the mesh, the current node and the
//! destination they return a [`PortSet`] of legal productive output ports
//! (or a full preference ranking for deflection routing). Routers own the
//! arbitration; this crate owns legality and minimality.

#![forbid(unsafe_code)]

pub mod deflection;
pub mod dor;
pub mod westfirst;

use noc_core::types::{Direction, NodeId, PortSet};
use noc_topology::Mesh;
use serde::{Deserialize, Serialize};

/// Which routing algorithm a router instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Dimension-ordered routing: X fully, then Y. Deterministic.
    Dor,
    /// West-First minimal adaptive: all West hops first, then adaptive
    /// among the remaining productive directions.
    WestFirst,
}

impl Algorithm {
    /// Legal productive output ports from `current` toward `dst`.
    ///
    /// Returns `{Local}` when `current == dst`; never returns an empty set.
    ///
    /// ```
    /// use noc_routing::Algorithm;
    /// use noc_core::types::{Direction, NodeId};
    /// use noc_topology::Mesh;
    /// let mesh = Mesh::new(8, 8);
    /// // From (1,1) to (5,5): XY routing goes East first...
    /// let dor = Algorithm::Dor.route(&mesh, NodeId(9), NodeId(45));
    /// assert_eq!(dor.iter().collect::<Vec<_>>(), vec![Direction::East]);
    /// // ...while West-First may adaptively pick East or South.
    /// let wf = Algorithm::WestFirst.route(&mesh, NodeId(9), NodeId(45));
    /// assert!(wf.contains(Direction::East) && wf.contains(Direction::South));
    /// ```
    pub fn route(self, mesh: &Mesh, current: NodeId, dst: NodeId) -> PortSet {
        match self {
            Algorithm::Dor => dor::route(mesh, current, dst),
            Algorithm::WestFirst => westfirst::route(mesh, current, dst),
        }
    }

    /// Short display name used in reports ("DOR" / "WF").
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Dor => "DOR",
            Algorithm::WestFirst => "WF",
        }
    }
}

/// All minimal (productive) directions from `current` toward `dst`,
/// irrespective of any turn-model restriction. `{Local}` at the
/// destination.
pub fn productive_ports(mesh: &Mesh, current: NodeId, dst: NodeId) -> PortSet {
    if current == dst {
        return PortSet::single(Direction::Local);
    }
    let c = mesh.coord_of(current);
    let d = mesh.coord_of(dst);
    // Signed shortest displacements: on the torus the mesh picks the
    // shorter ring direction (half-ring ties break East/South), so wrap
    // moves are productive exactly when they shorten the ring distance.
    let dx = mesh.dx(c, d);
    let dy = mesh.dy(c, d);
    let mut set = PortSet::EMPTY;
    if dx > 0 {
        set.insert(Direction::East);
    }
    if dx < 0 {
        set.insert(Direction::West);
    }
    if dy > 0 {
        set.insert(Direction::South);
    }
    if dy < 0 {
        set.insert(Direction::North);
    }
    set
}

/// Whether moving through `dir` from `current` reduces the distance to
/// `dst` (ejection counts as productive exactly at the destination).
pub fn is_productive(mesh: &Mesh, current: NodeId, dst: NodeId, dir: Direction) -> bool {
    productive_ports(mesh, current, dst).contains(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Coord;

    #[test]
    fn productive_at_destination_is_local() {
        let m = Mesh::new(4, 4);
        let n = NodeId(5);
        assert_eq!(
            productive_ports(&m, n, n),
            PortSet::single(Direction::Local)
        );
    }

    #[test]
    fn productive_diagonal_has_two_ports() {
        let m = Mesh::new(8, 8);
        let a = m.node_at(Coord { x: 2, y: 2 });
        let b = m.node_at(Coord { x: 5, y: 6 });
        let p = productive_ports(&m, a, b);
        assert!(p.contains(Direction::East));
        assert!(p.contains(Direction::South));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn productive_aligned_has_one_port() {
        let m = Mesh::new(8, 8);
        let a = m.node_at(Coord { x: 2, y: 2 });
        let b = m.node_at(Coord { x: 2, y: 0 });
        assert_eq!(
            productive_ports(&m, a, b),
            PortSet::single(Direction::North)
        );
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Dor.name(), "DOR");
        assert_eq!(Algorithm::WestFirst.name(), "WF");
    }
}
