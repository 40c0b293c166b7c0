//! Runtime-verification observer interface.
//!
//! Mirrors the trace-sink wiring: the [`Network`](crate::Network) owns a
//! `Box<dyn RunObserver>` that defaults to the no-op [`NullVerifier`], and
//! calls the hooks below from the sequential parts of a cycle — the
//! per-node ones from the commit phase, node by node in ascending order,
//! whatever the tile-worker count. A real verifier (the `noc-verify`
//! crate) replaces it for verified runs; the default costs one branch per
//! router step.
//!
//! Routers expose allocator-internal state (grants, FIFO depths, fairness
//! flips) through the [`ProbeBuf`] on [`StepCtx`](crate::router::StepCtx):
//! like the trace buffer it is disabled unless an active observer is
//! attached, so event construction is skipped on the hot path.

use noc_core::flit::Flit;
use noc_core::types::{Cycle, Direction, NodeId, NUM_LINK_PORTS};
use std::any::Any;

/// Allocator-internal facts a router may expose for the oracles. All fields
/// are router-local indices (inputs/outputs in `Direction::index` order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// One committed switch-allocation grant: flit slot `slot` of row
    /// `input` drives output column `output` this cycle. Slot 0 is the
    /// bufferless/incoming path, slot 1 the buffered path, slot 2 the PE
    /// injection port.
    Grant { input: u8, slot: u8, output: u8 },
    /// Occupancy of one input FIFO after this cycle's buffer writes.
    FifoDepth { input: u8, depth: u8, cap: u8 },
    /// The fairness counter flipped priority this cycle.
    /// `eligible_waiter` reports whether, before allocation, any waiting
    /// (buffered/injection) flit had a credit-backed request — routers
    /// clear it when an undetected fault wasted the contested output, so
    /// the starvation oracle never fires on legal fault behaviour.
    FairnessFlip {
        eligible_waiter: bool,
        waiter_won: bool,
    },
}

/// Staging buffer for [`ProbeEvent`]s, carried by `StepCtx`. Disabled (and
/// free) unless the network has an active observer attached.
#[derive(Debug, Default)]
pub struct ProbeBuf {
    enabled: bool,
    events: Vec<ProbeEvent>,
}

impl ProbeBuf {
    /// Enable or disable staging; also clears staged events.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.events.clear();
    }

    /// Whether probes are being collected this cycle.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stage one event; `f` is only evaluated when enabled.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> ProbeEvent) {
        if self.enabled {
            self.events.push(f());
        }
    }

    /// Events staged by the router this cycle.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }
}

/// Snapshot of one router's inputs, taken before `RouterModel::step` (which
/// may consume its arrivals/injection in place).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepInputs {
    /// Flits offered on the four link inputs this cycle.
    pub arrivals: [Option<Flit>; NUM_LINK_PORTS],
    /// The injection flit offered by the source queue.
    pub injection: Option<Flit>,
}

impl StepInputs {
    /// Number of link arrivals offered.
    pub fn arrivals_offered(&self) -> usize {
        self.arrivals.iter().flatten().count()
    }
}

/// Per-cycle observer of the network's execution. All hooks default to
/// no-ops; an observer reporting `is_active() == false` is never called and
/// disables probe staging entirely.
pub trait RunObserver: Send {
    /// Whether the observer wants per-cycle callbacks (and router probes).
    fn is_active(&self) -> bool {
        false
    }

    /// Called once per network cycle before any router steps.
    fn on_cycle_start(&mut self, _cycle: Cycle) {}

    /// Called once per router per cycle, in ascending node order, with
    /// the context as the router's `step` left it: `ctx.out_links` /
    /// `ctx.ejected` / `ctx.dropped` still hold this cycle's results,
    /// `ctx.probe` the router's probes and `ctx.events` its own counts.
    fn on_router_step(
        &mut self,
        _node: NodeId,
        _inputs: &StepInputs,
        _ctx: &crate::router::StepCtx,
        _occupancy_before: usize,
        _occupancy_after: usize,
    ) {
    }

    /// Called once per network cycle after all routers stepped, with the
    /// total number of flits anywhere in the network.
    fn on_cycle_end(&mut self, _cycle: Cycle, _in_flight: usize) {}

    /// A transient strike corrupted `flit` while it traversed the link
    /// leaving `node` through port `dir` (payload already flipped; the CRC
    /// no longer matches). Called after `on_router_step` of the same node
    /// and cycle.
    fn on_transit_corrupt(&mut self, _node: NodeId, _dir: Direction, _flit: &Flit) {}

    /// `flit` vanished on the link leaving `node` through `dir` — a
    /// transient drop strike or a dead link swallowed it. The ARQ layer is
    /// expected to recover it (retransmit) or count it lost.
    fn on_transit_loss(&mut self, _node: NodeId, _dir: Direction, _flit: &Flit) {}

    /// The ejection port at `node` rejected `flit` on a CRC mismatch and
    /// NACKed the source. Called after `on_router_step` of the same cycle.
    fn on_crc_reject(&mut self, _node: NodeId, _flit: &Flit) {}

    /// The source NI re-enqueued `flit` for retransmission (timeout or
    /// NACK); its next injection is a sanctioned re-injection.
    fn on_retransmit_queued(&mut self, _flit: &Flit) {}

    /// The source NI exhausted the retry budget for `flit` and counted the
    /// packet lost; the flit will not be seen again.
    fn on_flit_lost(&mut self, _flit: &Flit) {}

    /// Downcast support so callers can recover a concrete verifier after
    /// [`Network::take_observer`](crate::Network::take_observer).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The default observer: inactive, never called.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullVerifier;

impl RunObserver for NullVerifier {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_buf_disabled_skips_construction() {
        let mut buf = ProbeBuf::default();
        let mut called = false;
        buf.emit(|| {
            called = true;
            ProbeEvent::FifoDepth {
                input: 0,
                depth: 1,
                cap: 4,
            }
        });
        assert!(!called);
        assert!(buf.events().is_empty());
    }

    #[test]
    fn probe_buf_enabled_collects_and_reset_clears() {
        let mut buf = ProbeBuf::default();
        buf.set_enabled(true);
        buf.emit(|| ProbeEvent::Grant {
            input: 1,
            slot: 0,
            output: 4,
        });
        assert_eq!(buf.events().len(), 1);
        buf.set_enabled(true);
        assert!(buf.events().is_empty(), "re-enable clears staged events");
    }

    #[test]
    fn null_verifier_is_inactive() {
        assert!(!NullVerifier.is_active());
        let boxed: Box<dyn RunObserver> = Box::new(NullVerifier);
        assert!(boxed.into_any().downcast::<NullVerifier>().is_ok());
    }
}
