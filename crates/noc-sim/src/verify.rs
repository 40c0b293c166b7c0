//! The observer seam: one interface for everything that watches a run.
//!
//! A [`Network`](crate::Network) owns a list of attached [`Observer`]s
//! (`Network::attach` / `Network::detach`) and feeds each of them the
//! same per-cycle stream from the sequential parts of a cycle, whatever
//! the tile-worker count:
//!
//! 1. [`Observer::on_cycle_start`], then the NI prologue events of
//!    resilient runs ([`Observer::on_retransmit_queued`],
//!    [`Observer::on_flit_lost`]);
//! 2. one [`StepRecord`] per node, in ascending node order, handed over as
//!    node-ordered slices ([`Observer::on_steps`]; one tile is one slice);
//! 3. [`Observer::on_cycle_end`] with the cycle's [`CycleSample`].
//!
//! Each observer declares an [`Interest`] — trace events, the step itself,
//! or both — and the engine stages the union and nothing else: with no
//! observer attached a router's [`TraceBuf`](noc_trace::TraceBuf) and
//! [`ProbeBuf`] stay disabled, so event and probe construction cost one
//! branch per emission site. Two observers ship: the trace recorder
//! ([`RecordingSink`], implemented here so `noc-trace` stays a leaf) and
//! the runtime oracles (`noc_verify::Verifier`). Concrete observers come
//! back from the network through `dyn Any`.
//!
//! Routers expose allocator-internal state (grants, FIFO depths, fairness
//! flips) through the [`ProbeBuf`] on [`StepCtx`]; lifecycle events go
//! through its `trace` buffer.

use crate::router::StepCtx;
use noc_core::flit::Flit;
use noc_core::types::{Cycle, Direction, NodeId, NUM_LINK_PORTS};
use noc_trace::{CycleSample, RecordingSink};
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
    /// Occupancy of one input FIFO after this cycle's buffer writes,
    /// checked against the bound in the design's oracle profile.
    FifoDepth { input: u8, depth: u16 },
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

/// More [`ProbeEvent`]s than any router stages in one step: a grant per
/// crossbar output (two crossbars at most), a depth per input FIFO and
/// one fairness flip.
const PROBES_PER_STEP: usize = 32;

/// Staging buffer for [`ProbeEvent`]s, carried by `StepCtx`. Disabled (and
/// free) unless an attached observer reads steps.
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

/// A resilience fault that hit one node's traffic during its step, in the
/// order it happened (after the router stepped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// `flit` vanished on the link leaving through `dir` — a transient
    /// drop strike or a dead link swallowed it. The ARQ layer is expected
    /// to recover it (retransmit) or count it lost.
    TransitLoss(Direction, Flit),
    /// A transient strike corrupted `flit` on the link leaving through
    /// `dir` (payload already flipped; the CRC no longer matches).
    TransitCorrupt(Direction, Flit),
    /// The ejection port rejected `flit` on a CRC mismatch and NACKed the
    /// source.
    CrcReject(Flit),
}

/// Which parts of a [`StepRecord`] an observer reads. The engine fills
/// the union over the attached observers and nothing else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// The node's trace events (`ctx.trace.events`).
    pub trace: bool,
    /// The step itself: `inputs`, the outputs left in `ctx`, the
    /// occupancies, `ctx.probe` and `faults`.
    pub steps: bool,
}

impl Interest {
    /// Whether anything is to be staged.
    pub fn any(self) -> bool {
        self.trace || self.steps
    }
}

/// What one node's step produced, as the observers see it.
#[derive(Debug)]
pub struct StepRecord {
    pub node: NodeId,
    /// The context as the router's step left it: `out_links`, `ejected`,
    /// `dropped` and `injected` hold this cycle's results, `probe` the
    /// router's probes and `trace` the node's events (router and engine
    /// half, in emission order).
    pub ctx: StepCtx,
    pub inputs: StepInputs,
    /// Flits buffered inside the router before and after the step.
    pub occupancy_before: usize,
    pub occupancy_after: usize,
    pub faults: Vec<FaultEvent>,
}

impl StepRecord {
    /// An empty record for `node`.
    pub fn new(node: NodeId) -> StepRecord {
        let mut ctx = StepCtx::default();
        // Room for any one step's probes up front, so a node's first busy
        // cycle deep into a run does not allocate.
        ctx.probe.events.reserve(PROBES_PER_STEP);
        StepRecord {
            node,
            ctx,
            inputs: StepInputs::default(),
            occupancy_before: 0,
            occupancy_after: 0,
            faults: Vec::new(),
        }
    }
}

/// A listener on a network's execution; see the module docs for the order
/// of the hooks. Only [`interest`](Self::interest) and
/// [`on_steps`](Self::on_steps) are required.
pub trait Observer: Any + Send {
    /// What this observer reads from the step records (asked every cycle).
    fn interest(&self) -> Interest;

    /// Called once per network cycle before anything else happens in it.
    fn on_cycle_start(&mut self, _cycle: Cycle) {}

    /// The source NI re-enqueued `flit` for retransmission (timeout or
    /// NACK); its next injection is a sanctioned re-injection.
    fn on_retransmit_queued(&mut self, _flit: &Flit) {}

    /// The source NI exhausted the retry budget for `flit` and counted the
    /// packet lost; the flit will not be seen again.
    fn on_flit_lost(&mut self, _flit: &Flit) {}

    /// The next node-ordered run of this cycle's step records. Fields no
    /// attached observer is interested in are not filled this cycle.
    fn on_steps(&mut self, steps: &[StepRecord]);

    /// Called once per network cycle after all routers stepped.
    fn on_cycle_end(&mut self, _sample: &CycleSample<'_>) {}
}

impl Observer for RecordingSink {
    fn interest(&self) -> Interest {
        Interest {
            trace: true,
            steps: false,
        }
    }

    fn on_steps(&mut self, steps: &[StepRecord]) {
        for s in steps.iter().filter(|s| !s.ctx.trace.events.is_empty()) {
            self.record(&s.ctx.trace.events);
        }
    }

    fn on_cycle_end(&mut self, sample: &CycleSample<'_>) {
        self.series.observe(sample);
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
            ProbeEvent::FifoDepth { input: 0, depth: 1 }
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
}
