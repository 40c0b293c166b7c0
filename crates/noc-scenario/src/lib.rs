//! # noc-scenario — declarative bursty/multi-app workload scenarios
//!
//! A **scenario** bundles everything one experiment point varies beyond
//! the design and load axes:
//!
//! * **bursty injection** — each application drives its spatial pattern
//!   through a [`noc_traffic::BurstSource`] process (Bernoulli, two-state
//!   MMPP, or Pareto on/off) whose stationary mean equals the requested
//!   load, so bursty and steady runs are directly comparable;
//! * **multi-application interference** — the router grid is partitioned
//!   into disjoint rectangular source regions, one per application, with
//!   per-app latency/throughput reported in [`noc_sim::AppStats`]
//!   alongside the global aggregate;
//! * **heterogeneous router mixes** — a sparse island grid of a second
//!   design over the point's base design ([`RouterMix`]), restricted to
//!   the credit-free router family ([`credit_free`]);
//! * **torus and concentrated-mesh fabrics** — the scenario's
//!   [`noc_topology::Topology`] overrides the base config, and the
//!   wrap-aware routing/verification profiles apply automatically.
//!
//! Scenarios are addressed by *name* ([`ScenarioSpec::named`]), which makes
//! them first-class campaign axes: the name plus the offered load is the
//! entire cache identity of a scenario workload.

#![forbid(unsafe_code)]

pub mod run;
pub mod spec;
pub mod traffic;

pub use run::{run_scenario, scenario_config, ScenarioRun};
pub use spec::{credit_free, AppSpec, Region, RouterMix, ScenarioSpec};
pub use traffic::ScenarioTraffic;
