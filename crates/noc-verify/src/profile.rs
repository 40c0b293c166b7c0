//! The rules one router design promises, as the oracles read them.
//!
//! Each design promises a different set of invariants: DOR/WF designs must
//! obey their turn model, SCARAB may drop but never deflect, BLESS/AFC may
//! deflect but never drop. This crate knows no design by name: the facade's
//! `Design::profile` states each design's row, and whoever attaches a
//! [`crate::Verifier`] hands it one row per node.

use noc_routing::Algorithm;

/// Route-legality rule a design's link outputs must obey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteRule {
    /// Every hop must be in `Algorithm::route(mesh, node, dst)` — the
    /// DOR/WF turn-model set (DXbar, unified and buffered designs).
    Turn(Algorithm),
    /// Every hop must be productive (minimal), any dimension order
    /// (SCARAB: drops instead of deflecting).
    MinimalAdaptive,
    /// Hops may be unproductive (deflection routing: BLESS, AFC in
    /// bufferless mode). Only structural checks apply.
    Deflecting,
}

/// What the runtime oracles enforce for one design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignProfile {
    /// Route-legality rule for link outputs.
    pub route: RouteRule,
    /// Maximum flits a router may hold (`occupancy()` bound).
    pub router_capacity: usize,
    /// Maximum flits one FIFO may hold, checked against every `FifoDepth`
    /// probe; 0 for a design without FIFOs.
    pub fifo_capacity: usize,
    /// Whether the crossbar may legally grant two winners from one input
    /// row (DXbar's secondary crossbar, the unified design's
    /// segmented-output dual grant).
    pub dual_input: bool,
    /// Whether the design may drop flits (SCARAB). Non-dropping designs
    /// turn any `ctx.dropped` entry into a violation.
    pub drops_allowed: bool,
}
