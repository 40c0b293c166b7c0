//! Energy and area models (the paper's Table III).
//!
//! The paper synthesized its crossbars, buffers and links with Synopsys
//! Design Compiler on TSMC 65 nm at 1.0 V / 1 GHz with 128-bit flits. We do
//! not have that flow, so — as DESIGN.md records — we substitute an
//! analytical model calibrated to every number the paper states:
//!
//! * crossbar traversal 13 pJ/flit; unified crossbar 15 pJ/flit
//!   (transmission gates);
//! * input buffers are a large fraction (~40 %) of a buffered router's
//!   energy, motivating the whole line of work;
//! * DXbar occupies ~33 % more area than Flit-BLESS/SCARAB, the unified
//!   design ~25 % more; Buffered-8 > DXbar > Buffered-4; a buffer bank is
//!   larger than a 5x5 crossbar;
//! * critical paths: LT 0.47 ns, unified-crossbar worst switching path
//!   0.27 ns — both under the 1 ns clock.
//!
//! The simulator records *events* ([`noc_core::EventCounts`]); this crate
//! converts counts into energy, and summarizes per-design area.

#![forbid(unsafe_code)]

pub mod area;
pub mod energy;
pub mod table;

pub use area::{AreaConstants, AreaModel, DesignKind};
pub use energy::{EnergyConstants, EnergyModel};
pub use table::table3_rows;
