//! Traffic generation for the DXbar evaluation.
//!
//! * [`patterns`] — the paper's nine synthetic patterns (UR, NUR, BR, BF,
//!   CP, MT, PS, NB, TOR);
//! * [`generator`] — the [`TrafficModel`] trait consumed by the engine, the
//!   Bernoulli-injection synthetic model, and open-loop trace replay;
//! * [`bursty`] — self-similar injection processes (two-state MMPP and
//!   Pareto on/off) layered under any spatial pattern, plus the
//!   region-restricted generator the scenario engine builds on;
//! * [`splash`] — a closed-loop synthetic SPLASH-2 coherence workload model
//!   (the substitution for the paper's Simics/GEMS traces, see DESIGN.md);
//! * [`trace`] — recording and replaying packet traces.

#![forbid(unsafe_code)]

pub mod bursty;
pub mod generator;
pub mod patterns;
pub mod splash;
pub mod trace;

pub use bursty::{BurstSource, BurstyTraffic};
pub use generator::{DeliveredPacket, SyntheticTraffic, TrafficModel};
pub use patterns::Pattern;
pub use splash::{SplashApp, SplashTraffic};
