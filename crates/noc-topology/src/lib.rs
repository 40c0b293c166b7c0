//! Topology substrate: the 2D mesh and its links.
//!
//! The paper evaluates an 8x8 2D mesh. [`Mesh`] provides coordinate
//! arithmetic, neighbour lookup and link enumeration; [`link`] provides
//! fixed-latency delay lines used for flit, credit, look-ahead and NACK
//! channels (all 1-cycle in the paper, but the latency is a parameter).

#![forbid(unsafe_code)]

pub mod link;
pub mod mesh;
pub mod tile;

pub use link::{DelayLine, TimedChannel};
pub use mesh::{Coord, Mesh};
pub use noc_core::config::Topology;
pub use tile::TilePartition;
