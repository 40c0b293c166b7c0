//! Crossbar fault injection (Section II-C / III-E of the paper).
//!
//! Faults are permanent failures of one of a router's two crossbars.
//! The paper's methodology:
//!
//! * "The faults are randomly generated at different crossbars with the same
//!   random seed but varying percentages of faults" — [`FaultPlan::generate`]
//!   is seeded and takes the fault fraction; 100 % means a fault in (almost)
//!   every router, i.e. one crossbar failing at every router.
//! * "Once the fault is developed, we predict that the fault will manifest
//!   and will be detected after several cycles. We assume that BIST circuit
//!   can detect the fault in five router clock cycles" — [`FaultClock`]
//!   tracks manifestation, the first failed traversal attempt, and the
//!   5-cycle detection delay.
//!
//! Fault *detection* hardware (BIST) is not modelled, matching the paper.

#![forbid(unsafe_code)]

use noc_core::types::{Cycle, NodeId};
use noc_core::Rng;
use noc_topology::Mesh;
use serde::{Deserialize, Serialize};

/// Which of the two crossbars failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrossbarId {
    /// The bufferless primary crossbar (4 inputs x 5 outputs).
    Primary,
    /// The buffered secondary crossbar (5 inputs x 5 outputs).
    Secondary,
}

/// A planned permanent fault at one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterFault {
    pub router: NodeId,
    pub target: CrossbarId,
    /// Cycle at which the fault manifests (traversals start failing).
    pub onset: Cycle,
}

/// The set of faults for one simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Indexed by `NodeId::index()`; `None` = healthy router.
    faults: Vec<Option<RouterFault>>,
}

impl FaultPlan {
    /// No faults anywhere (the fault-free experiments).
    pub fn none(mesh: &Mesh) -> FaultPlan {
        FaultPlan {
            faults: vec![None; mesh.num_nodes()],
        }
    }

    /// Seeded random plan: a `fraction` of routers (rounded to nearest)
    /// receives one crossbar fault each, with the failed crossbar chosen by
    /// a fair coin and the onset uniform in `[onset_min, onset_max)`.
    pub fn generate(
        mesh: &Mesh,
        fraction: f64,
        onset_min: Cycle,
        onset_max: Cycle,
        seed: u64,
    ) -> FaultPlan {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        assert!(
            onset_min < onset_max || fraction == 0.0,
            "empty onset window"
        );
        let n = mesh.num_nodes();
        let count = (fraction * n as f64).round() as usize;
        let mut rng = Rng::stream(seed, 0xFA017);
        let chosen = rng.choose_indices(n, count);
        let mut faults = vec![None; n];
        for idx in chosen {
            let target = if rng.gen_bool(0.5) {
                CrossbarId::Primary
            } else {
                CrossbarId::Secondary
            };
            let onset = onset_min + rng.gen_range(onset_max - onset_min);
            faults[idx] = Some(RouterFault {
                router: NodeId(idx as u16),
                target,
                onset,
            });
        }
        FaultPlan { faults }
    }

    /// Build a plan from an explicit fault list (tests, targeted studies).
    /// Panics if two faults name the same router.
    pub fn from_faults(mesh: &Mesh, list: impl IntoIterator<Item = RouterFault>) -> FaultPlan {
        let mut faults = vec![None; mesh.num_nodes()];
        for f in list {
            let slot = &mut faults[f.router.index()];
            assert!(slot.is_none(), "duplicate fault at {}", f.router);
            *slot = Some(f);
        }
        FaultPlan { faults }
    }

    /// The planned fault at `node`, if any.
    pub fn fault_at(&self, node: NodeId) -> Option<RouterFault> {
        self.faults.get(node.index()).copied().flatten()
    }

    /// Number of faulty routers in the plan.
    pub fn count(&self) -> usize {
        self.faults.iter().filter(|f| f.is_some()).count()
    }

    /// Iterate over all planned faults.
    pub fn iter(&self) -> impl Iterator<Item = RouterFault> + '_ {
        self.faults.iter().filter_map(|f| *f)
    }
}

/// Per-router runtime fault tracking.
///
/// State machine: `Dormant` (before onset) → `Undetected` (manifested; flits
/// attempting the broken crossbar fail silently) → `Detected` (the switch
/// allocator reconfigures the demultiplexers / 2x2 bypass switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultClock {
    pub fault: RouterFault,
    /// Cycle of the first traversal attempt that failed (starts the BIST
    /// detection countdown).
    first_failed_attempt: Option<Cycle>,
    /// Cycles from first failed attempt to detection (paper: 5).
    detection_delay: u64,
}

/// Observable fault state at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Fault has not yet manifested; the crossbar works.
    Dormant,
    /// Fault manifested but not yet detected; traversals through the broken
    /// crossbar fail and the router does not yet know why.
    Undetected,
    /// Fault detected; the router has reconfigured around the broken
    /// crossbar.
    Detected,
}

impl FaultClock {
    pub fn new(fault: RouterFault, detection_delay: u64) -> FaultClock {
        FaultClock {
            fault,
            first_failed_attempt: None,
            detection_delay,
        }
    }

    /// Whether the fault has manifested (crossbar physically broken).
    #[inline]
    pub fn manifested(&self, cycle: Cycle) -> bool {
        cycle >= self.fault.onset
    }

    /// Record that a flit attempted to traverse the broken crossbar at
    /// `cycle` (only meaningful once manifested). Starts the detection
    /// countdown on the first such attempt.
    pub fn record_failed_attempt(&mut self, cycle: Cycle) {
        debug_assert!(self.manifested(cycle));
        if self.first_failed_attempt.is_none() {
            self.first_failed_attempt = Some(cycle);
        }
    }

    /// Current phase of the fault at `cycle`.
    pub fn phase(&self, cycle: Cycle) -> FaultPhase {
        if !self.manifested(cycle) {
            return FaultPhase::Dormant;
        }
        match self.first_failed_attempt {
            Some(first) if cycle >= first + self.detection_delay => FaultPhase::Detected,
            _ => FaultPhase::Undetected,
        }
    }

    /// Convenience: is the broken crossbar unusable *and* known broken?
    pub fn detected(&self, cycle: Cycle) -> bool {
        self.phase(cycle) == FaultPhase::Detected
    }

    /// Convenience: does a traversal through the target crossbar fail now?
    pub fn traversal_fails(&self, cycle: Cycle) -> bool {
        self.manifested(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mesh() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn none_plan_is_empty() {
        let p = FaultPlan::none(&mesh());
        assert_eq!(p.count(), 0);
        assert!(p.fault_at(NodeId(0)).is_none());
    }

    #[test]
    fn fraction_controls_count() {
        let m = mesh();
        for (frac, expect) in [(0.0, 0), (0.25, 16), (0.5, 32), (1.0, 64)] {
            let p = FaultPlan::generate(&m, frac, 100, 200, 7);
            assert_eq!(p.count(), expect, "fraction {frac}");
        }
    }

    #[test]
    fn count_rounds_to_nearest_half_away_from_zero() {
        // Pins the "almost every router" semantics of the rounded count:
        // fraction * n is rounded to nearest, with .5 going up (f64::round).
        let small = Mesh::new(2, 2); // n = 4
        for (frac, expect) in [(0.124, 0), (0.125, 1), (0.374, 1), (0.375, 2)] {
            let p = FaultPlan::generate(&small, frac, 0, 10, 7);
            assert_eq!(p.count(), expect, "fraction {frac} on n=4");
        }
        // 63.5 / 64 rounds up to "every router".
        let m = mesh();
        let p = FaultPlan::generate(&m, 63.5 / 64.0, 0, 10, 7);
        assert_eq!(p.count(), 64);
        assert!(m.nodes().all(|n| p.fault_at(n).is_some()));
    }

    #[test]
    fn count_rounds_on_odd_node_meshes() {
        // Non-power-of-two node counts: 3x5 = 15 routers.
        let m = Mesh::new(3, 5);
        for (frac, expect) in [(0.2, 3), (0.5, 8), (1.0, 15)] {
            let p = FaultPlan::generate(&m, frac, 0, 10, 9);
            assert_eq!(p.count(), expect, "fraction {frac} on n=15");
        }
    }

    #[test]
    fn zero_fraction_tolerates_empty_onset_window() {
        // The assert exempts fraction 0.0, since no onset is ever sampled.
        let p = FaultPlan::generate(&mesh(), 0.0, 5, 5, 1);
        assert_eq!(p.count(), 0);
    }

    #[test]
    fn same_seed_same_plan() {
        let m = mesh();
        let a = FaultPlan::generate(&m, 0.5, 0, 1000, 42);
        let b = FaultPlan::generate(&m, 0.5, 0, 1000, 42);
        for n in m.nodes() {
            assert_eq!(a.fault_at(n), b.fault_at(n));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let m = mesh();
        let a = FaultPlan::generate(&m, 0.5, 0, 1000, 1);
        let b = FaultPlan::generate(&m, 0.5, 0, 1000, 2);
        let differs = m.nodes().any(|n| a.fault_at(n) != b.fault_at(n));
        assert!(differs);
    }

    #[test]
    fn onsets_within_window() {
        let m = mesh();
        let p = FaultPlan::generate(&m, 1.0, 500, 600, 3);
        for f in p.iter() {
            assert!((500..600).contains(&f.onset));
        }
    }

    #[test]
    fn both_targets_occur_at_full_fraction() {
        let m = mesh();
        let p = FaultPlan::generate(&m, 1.0, 0, 10, 11);
        let primaries = p.iter().filter(|f| f.target == CrossbarId::Primary).count();
        assert!(primaries > 10 && primaries < 54, "primaries {primaries}");
    }

    #[test]
    fn from_faults_roundtrip() {
        let m = mesh();
        let f = RouterFault {
            router: NodeId(5),
            target: CrossbarId::Primary,
            onset: 42,
        };
        let p = FaultPlan::from_faults(&m, [f]);
        assert_eq!(p.count(), 1);
        assert_eq!(p.fault_at(NodeId(5)), Some(f));
        assert_eq!(p.fault_at(NodeId(6)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate fault")]
    fn from_faults_rejects_duplicates() {
        let m = mesh();
        let f = RouterFault {
            router: NodeId(5),
            target: CrossbarId::Primary,
            onset: 42,
        };
        let _ = FaultPlan::from_faults(&m, [f, f]);
    }

    #[test]
    fn clock_phases_progress() {
        let f = RouterFault {
            router: NodeId(0),
            target: CrossbarId::Primary,
            onset: 100,
        };
        let mut c = FaultClock::new(f, 5);
        assert_eq!(c.phase(99), FaultPhase::Dormant);
        assert!(!c.traversal_fails(99));
        assert_eq!(c.phase(100), FaultPhase::Undetected);
        assert!(c.traversal_fails(100));
        c.record_failed_attempt(103);
        assert_eq!(c.phase(107), FaultPhase::Undetected);
        assert_eq!(c.phase(108), FaultPhase::Detected);
        assert!(c.detected(200));
        // Still physically broken after detection.
        assert!(c.traversal_fails(200));
    }

    #[test]
    fn detection_needs_an_attempt() {
        let f = RouterFault {
            router: NodeId(0),
            target: CrossbarId::Secondary,
            onset: 10,
        };
        let c = FaultClock::new(f, 5);
        // Without any traversal attempt the BIST countdown never starts.
        assert_eq!(c.phase(10_000), FaultPhase::Undetected);
    }

    #[test]
    fn first_attempt_sticks() {
        let f = RouterFault {
            router: NodeId(0),
            target: CrossbarId::Primary,
            onset: 0,
        };
        let mut c = FaultClock::new(f, 5);
        c.record_failed_attempt(10);
        c.record_failed_attempt(50); // ignored; countdown anchored at 10
        assert!(c.detected(15));
    }

    #[test]
    fn bist_detection_boundary_is_exactly_delay_cycles_after_first_attempt() {
        // The paper's BIST countdown: with the default 5-cycle delay, the
        // fault stays Undetected through first+4 and flips Detected at
        // exactly first+5 — check every cycle across the boundary.
        let f = RouterFault {
            router: NodeId(3),
            target: CrossbarId::Primary,
            onset: 0,
        };
        let mut c = FaultClock::new(f, 5);
        c.record_failed_attempt(20);
        for cycle in 20..25 {
            assert_eq!(c.phase(cycle), FaultPhase::Undetected, "cycle {cycle}");
            assert!(!c.detected(cycle), "cycle {cycle}");
        }
        assert_eq!(c.phase(25), FaultPhase::Detected);
        assert!(c.detected(25));
    }

    #[test]
    fn zero_detection_delay_detects_on_the_attempt_cycle() {
        // The ablation sweep's delay=0 edge: detection is immediate, but
        // still requires an attempt — before it, the fault is Undetected.
        let f = RouterFault {
            router: NodeId(0),
            target: CrossbarId::Secondary,
            onset: 5,
        };
        let mut c = FaultClock::new(f, 0);
        assert_eq!(c.phase(6), FaultPhase::Undetected);
        c.record_failed_attempt(7);
        assert_eq!(c.phase(7), FaultPhase::Detected);
    }

    #[test]
    fn attempt_at_onset_cycle_anchors_the_countdown() {
        // A flit can hit the crossbar the very cycle the fault manifests;
        // the countdown anchors there, so detection lands at onset+delay.
        let f = RouterFault {
            router: NodeId(1),
            target: CrossbarId::Primary,
            onset: 100,
        };
        let mut c = FaultClock::new(f, 5);
        c.record_failed_attempt(100);
        assert_eq!(c.phase(104), FaultPhase::Undetected);
        assert_eq!(c.phase(105), FaultPhase::Detected);
    }

    #[test]
    fn phase_queries_before_the_anchor_stay_consistent() {
        // phase() may be queried for cycles earlier than the recorded
        // attempt (e.g. replay/diagnostics): those still report the
        // pre-detection state, and Dormant before onset.
        let f = RouterFault {
            router: NodeId(2),
            target: CrossbarId::Secondary,
            onset: 50,
        };
        let mut c = FaultClock::new(f, 5);
        c.record_failed_attempt(60);
        assert_eq!(c.phase(49), FaultPhase::Dormant);
        assert_eq!(c.phase(55), FaultPhase::Undetected);
        assert_eq!(c.phase(64), FaultPhase::Undetected);
        assert_eq!(c.phase(65), FaultPhase::Detected);
    }

    proptest! {
        #[test]
        fn prop_detection_boundary_exact(delay in 0u64..=64, first in 0u64..=1_000) {
            // For any delay and anchor, Detected begins at exactly
            // first + delay and never a cycle earlier.
            let f = RouterFault {
                router: NodeId(0),
                target: CrossbarId::Primary,
                onset: 0,
            };
            let mut c = FaultClock::new(f, delay);
            c.record_failed_attempt(first);
            if delay > 0 {
                prop_assert_eq!(c.phase(first + delay - 1), FaultPhase::Undetected);
            }
            prop_assert_eq!(c.phase(first + delay), FaultPhase::Detected);
        }
    }

    proptest! {
        #[test]
        fn prop_plan_matches_fraction(frac in 0.0f64..=1.0, seed in any::<u64>()) {
            let m = mesh();
            let p = FaultPlan::generate(&m, frac, 0, 100, seed);
            let expect = (frac * 64.0).round() as usize;
            prop_assert_eq!(p.count(), expect);
            // fault_at agrees with iter()
            let listed: Vec<RouterFault> = p.iter().collect();
            prop_assert_eq!(listed.len(), expect);
            for f in listed {
                prop_assert_eq!(p.fault_at(f.router), Some(f));
            }
        }
    }
}
