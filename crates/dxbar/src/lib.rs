//! DXbar — the paper's contribution.
//!
//! Two router micro-architectures share the same idea: keep the low-latency,
//! low-power single-cycle switching of a bufferless network at low load, and
//! buffer (instead of deflecting or dropping) the losers of switch
//! arbitration at high load.
//!
//! One router, [`router::DualInputRouter`], holds what the two designs
//! share: 4-deep FIFOs behind the link inputs, credits, the fairness
//! counter, arrival and loser handling, and the commit of a grant. Its
//! [`router::Allocator`] is the design:
//!
//! * `Greedy` — the dual crossbar (Section II-A): a bufferless **primary**
//!   4x5 crossbar for incoming flits and a buffered **secondary** 5x5
//!   crossbar (the FIFOs + the injection port) for arbitration losers,
//!   walked oldest-first per class. Output multiplexers let each output
//!   port accept one flit per cycle from either crossbar; the same input
//!   port can feed both crossbars in the same cycle (Fig. 3(d)). Fault
//!   tolerance lives here (Section II-C: 2x2 bypass switches, 5-cycle BIST
//!   detection).
//! * `Separable` — the dual-input single crossbar (Section II-B): one 5x5
//!   matrix whose output lines are segmented by transmission gates so two
//!   flits of the same input port traverse simultaneously, with a
//!   conflict-free allocator that swaps the pair when the segmentation
//!   would be electrically infeasible.
//!
//! Supporting modules: [`fairness`] (the threshold-4 priority-flip counter),
//! [`crossbar`] (physical connection model with crosspoint faults),
//! [`allocator`] (the separable output-first allocator with two serial V:1
//! arbiters) and [`conflict_free`] (detection + swap logic).

#![forbid(unsafe_code)]

pub mod allocator;
pub mod conflict_free;
pub mod crossbar;
pub mod fairness;
pub mod router;

pub use fairness::FairnessCounter;
pub use router::{best_output, Allocator, DualCrossbar, DualInputRouter};
