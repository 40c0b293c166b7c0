//! Bit-exact reproducibility: the same seed must give the same run, and
//! results must not depend on when/where the run executes (the property
//! that makes rayon-parallel sweeps safe).

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};

fn cfg() -> SimConfig {
    SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 300,
        measure_cycles: 800,
        drain_cycles: 400,
        ..SimConfig::default()
    }
}

fn fingerprint(design: Design, seed: u64) -> (u64, u64, u64, u64, u64) {
    let c = SimConfig { seed, ..cfg() };
    let r = run(RunPlan::synthetic(design, &c, Pattern::UniformRandom, 0.25)).result;
    (
        r.accepted_packets,
        r.stats.events.link_traversals,
        r.stats.events.buffer_writes,
        r.stats.events.deflections,
        r.avg_packet_latency.to_bits(),
    )
}

#[test]
fn same_seed_same_run_every_design() {
    for design in Design::ALL {
        assert_eq!(
            fingerprint(design, 11),
            fingerprint(design, 11),
            "{} not deterministic",
            design.name()
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(Design::DXbarDor, 1);
    let b = fingerprint(Design::DXbarDor, 2);
    assert_ne!(a, b, "different seeds should explore different traffic");
}

#[test]
fn parallel_sweep_matches_sequential() {
    use rayon::prelude::*;
    let seeds: Vec<u64> = (0..6).collect();
    let sequential: Vec<_> = seeds
        .iter()
        .map(|&s| fingerprint(Design::DXbarDor, s))
        .collect();
    let parallel: Vec<_> = seeds
        .par_iter()
        .map(|&s| fingerprint(Design::DXbarDor, s))
        .collect();
    assert_eq!(sequential, parallel);
}
