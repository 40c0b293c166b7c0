//! The router-model interface.
//!
//! A [`RouterModel`] is the per-node micro-architecture: it owns its
//! buffers, allocators and fault state, and communicates with the engine
//! exclusively through a [`StepCtx`] each cycle. This keeps every design
//! (DXbar, unified, Buffered-4/8, Flit-BLESS, SCARAB) pluggable into the
//! same network and measured by the same accounting.

use crate::verify::ProbeBuf;
use noc_core::flit::Flit;
use noc_core::stats::EventCounts;
use noc_core::types::{Cycle, NodeId, NUM_LINK_PORTS};
use noc_trace::TraceBuf;

/// Per-cycle router interface record.
///
/// The engine fills the input fields, calls [`RouterModel::step`], then
/// consumes the output fields. Output arrays are indexed by
/// [`noc_core::Direction::index`] over the four link directions.
#[derive(Debug, Default)]
pub struct StepCtx {
    /// Current cycle.
    pub cycle: Cycle,
    /// Flit delivered on each link input this cycle (downstream end of the
    /// LT stage). `None` = idle input.
    pub arrivals: [Option<Flit>; NUM_LINK_PORTS],
    /// Credits returned by the downstream router of each *output* link.
    pub credits_in: [u32; NUM_LINK_PORTS],
    /// Head of this node's injection queue, offered for injection.
    pub injection: Option<Flit>,

    /// Flit granted each output link this cycle (enters LT next cycle).
    pub out_links: [Option<Flit>; NUM_LINK_PORTS],
    /// Flits delivered to the local PE this cycle.
    pub ejected: Vec<Flit>,
    /// Credits to return upstream on each *input* link (slots freed this
    /// cycle, including bypasses that never occupied a slot).
    pub credits_out: [u32; NUM_LINK_PORTS],
    /// Whether the offered injection flit was accepted.
    pub injected: bool,
    /// Flits dropped by the router this cycle (SCARAB); the engine NACKs
    /// the source and schedules a retransmission.
    pub dropped: Vec<Flit>,
    /// Energy-relevant events recorded by the router this cycle.
    pub events: EventCounts,
    /// Lifecycle-event staging buffer. Disabled (and free) unless an
    /// attached [`Observer`](crate::verify::Observer) reads trace events;
    /// routers emit through [`TraceBuf::emit`] so event construction is
    /// skipped when off.
    pub trace: TraceBuf,
    /// Verification-probe staging buffer: allocator grants, FIFO depths,
    /// fairness flips. Disabled (and free) unless an attached observer
    /// reads steps.
    pub probe: ProbeBuf,
}

impl StepCtx {
    /// Fresh context for one router step.
    pub fn new(cycle: Cycle) -> StepCtx {
        StepCtx {
            cycle,
            ..Default::default()
        }
    }

    /// Clear the context in place for the next router step, keeping the
    /// capacity of every buffer. The engine holds one persistent `StepCtx`
    /// per tile (per node when an observer reads steps) and resets it per
    /// router, so the per-cycle path allocates nothing.
    pub fn reset(&mut self, cycle: Cycle) {
        self.cycle = cycle;
        // `arrivals` and `out_links` are already all-`None` here: the router
        // contract requires every arrival to be consumed (switched or
        // buffered — flit conservation would fail otherwise) and the engine
        // drains every output before it reuses the context. Skipping the
        // ~600-byte rewrite of `Option<Flit>` arrays is a measurable win at
        // 64+ nodes;
        // the debug build still clears them and asserts the contract.
        debug_assert!(
            self.arrivals.iter().all(|a| a.is_none()),
            "router left an arrival unconsumed"
        );
        debug_assert!(
            self.out_links.iter().all(|o| o.is_none()),
            "engine left an output undrained"
        );
        #[cfg(debug_assertions)]
        {
            self.arrivals = [None; NUM_LINK_PORTS];
            self.out_links = [None; NUM_LINK_PORTS];
        }
        self.credits_in = [0; NUM_LINK_PORTS];
        self.injection = None;
        self.ejected.clear();
        self.credits_out = [0; NUM_LINK_PORTS];
        self.injected = false;
        self.dropped.clear();
        // `events` is NOT cleared here: the counters are pure accumulators
        // (routers only ever add), so the engine lets them run across a
        // whole tile sweep and harvests them once per cycle — per node
        // when each node steps in its own context.
        // trace/probe are cleared by the engine's set_enabled calls, which
        // immediately follow every reset.
    }

    /// Total flits handed to the engine this cycle (outputs + ejections +
    /// drops) — used by conservation checks.
    pub fn flits_out(&self) -> usize {
        self.out_links.iter().flatten().count() + self.ejected.len() + self.dropped.len()
    }

    /// Total flits handed to the router this cycle (arrivals + accepted
    /// injection).
    pub fn flits_in(&self) -> usize {
        self.arrivals.iter().flatten().count() + usize::from(self.injected)
    }
}

/// A router micro-architecture.
pub trait RouterModel: Send {
    /// The node this router instance serves.
    fn node(&self) -> NodeId;

    /// Advance one cycle. All inputs and outputs travel through `ctx`.
    fn step(&mut self, ctx: &mut StepCtx);

    /// True when no flit is latched or buffered inside the router (used for
    /// drain detection at the end of closed-loop runs).
    fn is_idle(&self) -> bool;

    /// Number of flits currently held inside the router (diagnostics).
    fn occupancy(&self) -> usize;

    /// Design label for reports ("DXbar DOR", "Buffered 8", ...).
    fn design_name(&self) -> &'static str;

    /// Inform the router which of its output links are permanently dead
    /// (`down[Direction::index]`). Adaptive designs may steer minimal
    /// choices away from dead links; oblivious (DOR) designs ignore it and
    /// rely on the NI retransmission layer to account the loss. Default:
    /// no-op.
    fn set_faulty_links(&mut self, _down: [bool; NUM_LINK_PORTS]) {}
}

/// Adapter: a boxed router model is itself a router model, so the default
/// `Network<Box<dyn RouterModel>>` (dynamic dispatch) keeps working through
/// the generic engine. Statically dispatched networks skip this entirely.
impl RouterModel for Box<dyn RouterModel> {
    #[inline]
    fn node(&self) -> NodeId {
        (**self).node()
    }
    #[inline]
    fn step(&mut self, ctx: &mut StepCtx) {
        (**self).step(ctx)
    }
    #[inline]
    fn is_idle(&self) -> bool {
        (**self).is_idle()
    }
    #[inline]
    fn occupancy(&self) -> usize {
        (**self).occupancy()
    }
    #[inline]
    fn design_name(&self) -> &'static str {
        (**self).design_name()
    }
    #[inline]
    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        (**self).set_faulty_links(down)
    }
}

/// Builds one router per node; the engine calls it for every node id.
pub type RouterFactory<'a> = dyn Fn(NodeId) -> Box<dyn RouterModel> + 'a;

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::flit::PacketId;

    #[test]
    fn flit_accounting_helpers() {
        let mut ctx = StepCtx::new(5);
        assert_eq!(ctx.flits_in(), 0);
        assert_eq!(ctx.flits_out(), 0);
        let f = Flit::synthetic(PacketId(1), NodeId(0), NodeId(1), 0);
        ctx.arrivals[0] = Some(f);
        ctx.arrivals[2] = Some(f);
        ctx.injected = true;
        assert_eq!(ctx.flits_in(), 3);
        ctx.out_links[1] = Some(f);
        ctx.ejected.push(f);
        ctx.dropped.push(f);
        assert_eq!(ctx.flits_out(), 3);
        assert_eq!(ctx.cycle, 5);
    }
}
