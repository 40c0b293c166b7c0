//! DXbar — the paper's contribution.
//!
//! Two router micro-architectures share the same idea: keep the low-latency,
//! low-power single-cycle switching of a bufferless network at low load, and
//! buffer (instead of deflecting or dropping) the losers of switch
//! arbitration at high load.
//!
//! * [`router::DXbarRouter`] — the dual-crossbar design (Section II-A): a
//!   bufferless **primary** 4x5 crossbar for incoming flits and a buffered
//!   **secondary** 5x5 crossbar (4-deep serial FIFOs + the injection port)
//!   for arbitration losers. Output multiplexers let each output port accept
//!   one flit per cycle from either crossbar; the same input port can feed
//!   both crossbars in the same cycle (Fig. 3(d)).
//! * [`unified::UnifiedRouter`] — the dual-input single crossbar (Section
//!   II-B): one 5x5 matrix whose output lines are segmented by transmission
//!   gates so two flits of the same input port traverse simultaneously,
//!   with a conflict-free allocator that swaps the pair when the
//!   segmentation would be electrically infeasible.
//!
//! Supporting modules: [`fairness`] (the threshold-4 priority-flip counter),
//! [`crossbar`] (physical connection model with crosspoint faults),
//! [`allocator`] (the separable output-first allocator with two serial V:1
//! arbiters), [`conflict_free`] (detection + swap logic), and fault
//! tolerance is built into [`router::DXbarRouter`] (Section II-C: 2x2
//! bypass switches, 5-cycle BIST detection).

#![forbid(unsafe_code)]

pub mod allocator;
pub mod conflict_free;
pub mod crossbar;
pub mod fairness;
pub mod router;
pub mod unified;

pub use fairness::FairnessCounter;
pub use router::{best_output, DXbarRouter};
pub use unified::UnifiedRouter;
