//! Router-zoo extensions beyond the paper's comparator set.
//!
//! Two microarchitectures that bracket the paper's unified-buffer design
//! from opposite sides of the buffering spectrum:
//!
//! * [`damq::DamqRouter`] — a dynamically-allocated multi-queue (DAMQ)
//!   router: all input buffering is one shared slab managed by a
//!   linked-list allocator ([`slab::SharedSlab`]) with per-virtual-queue
//!   head/tail chains and a reserved-slot starvation guard, the direct
//!   generalization of the paper's unified buffer (arXiv:0910.1852).
//! * [`minbd::MinBdRouter`] — a MinBD-style minimally-buffered deflection
//!   router: BLESS-like deflection switching plus a small side buffer with
//!   a buffer-ejection/redirection stage and silver-flit prioritization to
//!   bound deflection livelock (arXiv:2112.02516).
//!
//! Both implement [`noc_sim::RouterModel`] and plug into the same engine,
//! accounting, tracing and verification harness as the paper designs.

#![forbid(unsafe_code)]

pub mod damq;
pub mod minbd;
pub mod slab;

pub use damq::DamqRouter;
pub use minbd::MinBdRouter;
pub use slab::{SharedSlab, SlotBudget, LOCAL_VQ, NUM_VQS};
