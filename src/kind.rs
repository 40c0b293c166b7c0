//! Statically dispatched router union.
//!
//! The engine is generic over [`RouterModel`], and every design this crate
//! evaluates is known at compile time — so [`Design::build`](crate::Design::build)
//! produces a `Network<RouterKind>` rather than a `Network<Box<dyn
//! RouterModel>>`. The enum match compiles to a jump over inlined step
//! bodies (no vtable call, no per-router heap box), which matters because
//! `step` is *the* hot function: it runs once per node per cycle.
//!
//! External router implementations keep using the boxed form; the trait
//! object remains the engine's default type parameter.

use dxbar::DualInputRouter;
use noc_baseline::{AfcRouter, BlessRouter, BufferedRouter, ScarabRouter};
use noc_core::types::{NodeId, NUM_LINK_PORTS};
use noc_sim::router::{RouterModel, StepCtx};
use noc_zoo::{DamqRouter, MinBdRouter};

/// One of the evaluated router micro-architectures, dispatched statically.
#[allow(clippy::large_enum_variant)]
pub enum RouterKind {
    DualInput(DualInputRouter),
    Buffered(BufferedRouter),
    Bless(BlessRouter),
    Scarab(ScarabRouter),
    Afc(AfcRouter),
    Damq(DamqRouter),
    MinBd(MinBdRouter),
}

macro_rules! dispatch {
    ($self:ident, $r:ident => $body:expr) => {
        match $self {
            RouterKind::DualInput($r) => $body,
            RouterKind::Buffered($r) => $body,
            RouterKind::Bless($r) => $body,
            RouterKind::Scarab($r) => $body,
            RouterKind::Afc($r) => $body,
            RouterKind::Damq($r) => $body,
            RouterKind::MinBd($r) => $body,
        }
    };
}

impl RouterModel for RouterKind {
    #[inline]
    fn node(&self) -> NodeId {
        dispatch!(self, r => r.node())
    }

    #[inline]
    fn step(&mut self, ctx: &mut StepCtx) {
        dispatch!(self, r => r.step(ctx))
    }

    #[inline]
    fn is_idle(&self) -> bool {
        dispatch!(self, r => r.is_idle())
    }

    #[inline]
    fn occupancy(&self) -> usize {
        dispatch!(self, r => r.occupancy())
    }

    #[inline]
    fn design_name(&self) -> &'static str {
        dispatch!(self, r => r.design_name())
    }

    #[inline]
    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        dispatch!(self, r => r.set_faulty_links(down))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Design;
    use noc_core::SimConfig;
    use noc_faults::FaultPlan;
    use noc_topology::Mesh;

    #[test]
    fn dispatch_matches_inner_router() {
        let cfg = SimConfig {
            width: 4,
            height: 4,
            ..SimConfig::default()
        };
        let mesh = Mesh::new(4, 4);
        for d in Design::ALL {
            let net = d.build(&cfg, &FaultPlan::none(&mesh));
            assert_eq!(net.design_name(), d.name(), "{d:?}");
        }
    }

    #[test]
    fn one_dual_input_router_is_no_larger_than_the_dual_crossbar_was() {
        // 408 B was the dual-crossbar router alone, before the unified
        // crossbar shared its type.
        let size = std::mem::size_of::<RouterKind>();
        assert!(size <= 408, "RouterKind is {size} B");
    }

    #[test]
    fn faulty_link_passthrough_does_not_panic() {
        let mesh = Mesh::new(4, 4);
        let mut r = RouterKind::Bless(BlessRouter::new(NodeId(0), mesh));
        r.set_faulty_links([false; NUM_LINK_PORTS]);
        assert_eq!(r.occupancy(), 0);
        assert!(r.is_idle());
    }
}
