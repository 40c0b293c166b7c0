//! The six workloads. Each is a function that sets up, runs timed passes
//! and checks its outputs through a [`Cx`].

pub mod campaign;
pub mod daemon;
pub mod kernel;

use crate::run::Cx;
use crate::steady::Timing;

/// One workload: its declared name, the unit its times are reported in
/// (see `steady.rs`), and its body.
pub struct Workload {
    pub name: &'static str,
    pub timing: Timing,
    pub run: fn(&mut Cx),
}

/// In the order `decl::WORKLOADS` declares them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "kernel_8x8",
        timing: Timing::Calibrated,
        run: kernel::kernel_8x8,
    },
    Workload {
        name: "kernel_64x64_tiled",
        timing: Timing::Calibrated,
        run: kernel::kernel_64x64_tiled,
    },
    Workload {
        name: "kernel_8x8_observed",
        timing: Timing::Calibrated,
        run: kernel::kernel_8x8_observed,
    },
    Workload {
        name: "campaign_cold",
        timing: Timing::Calibrated,
        run: campaign::campaign_cold,
    },
    Workload {
        name: "campaign_warm",
        timing: Timing::Calibrated,
        run: campaign::campaign_warm,
    },
    Workload {
        name: "daemon_mixed",
        timing: Timing::AsMeasured,
        run: daemon::daemon_mixed,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implemented_workloads_are_the_declared_ones() {
        let implemented: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let declared: Vec<&str> = crate::decl::workload_names().collect();
        assert_eq!(implemented, declared);
    }
}
