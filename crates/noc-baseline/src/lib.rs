//! The paper's comparison designs, re-implemented from their published
//! specifications:
//!
//! * [`buffered`] — the generic VC router baseline with a 3-stage pipeline
//!   (RC, speculative VA+SA/ST, LT): "Buffered 4" (1 VC x 4 flits/input)
//!   and "Buffered 8" (two sets of 4-flit buffers, removing head-of-line
//!   blocking);
//! * [`bless`] — Flit-BLESS [Moscibroda & Mutlu, ISCA'09]: bufferless
//!   deflection routing with age-based (oldest-first) arbitration;
//! * [`scarab`] — SCARAB [Hayenga et al., MICRO'09]: bufferless
//!   minimal-adaptive routing that drops on conflict and retransmits via a
//!   dedicated circuit-switched NACK network.
//!
//! As an extension beyond the paper's comparison set, [`afc`] implements a
//! simplified version of Adaptive Flow Control (Jafri et al., MICRO 2010 —
//! the paper's reference \[9\]), which the conclusion calls complementary to
//! DXbar.

#![forbid(unsafe_code)]

pub mod afc;
pub mod bless;
pub mod buffered;
pub mod scarab;

pub use afc::{AfcMode, AfcRouter};
pub use bless::BlessRouter;
pub use buffered::{BufferedRouter, BufferedVariant};
pub use scarab::ScarabRouter;
