//! Network-level property tests: for random meshes, loads, seeds and
//! designs, the invariants that define a correct interconnect must hold —
//! every packet is delivered exactly once, flits are conserved, energy
//! accounting is additive, and runs are reproducible.

use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_power::energy::EnergyModel;
use dxbar_noc::noc_sim::runner::{run, RunMode};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::trace::{Trace, TraceReplay};
use dxbar_noc::{Design, SimConfig};
use proptest::prelude::*;

fn any_design() -> impl Strategy<Value = Design> {
    prop::sample::select(Design::ALL.to_vec())
}

fn any_pattern() -> impl Strategy<Value = Pattern> {
    // Patterns valid on non-power-of-two meshes.
    prop::sample::select(vec![
        Pattern::UniformRandom,
        Pattern::NonUniformRandom,
        Pattern::MatrixTranspose,
        Pattern::Neighbor,
        Pattern::Tornado,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Exactly-once delivery for any design, pattern, load, mesh and seed.
    #[test]
    fn prop_exactly_once_delivery(
        design in any_design(),
        pattern in any_pattern(),
        rate in 0.02f64..0.35,
        dims in (3u16..6, 3u16..6),
        packet_len in 1u8..5,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            width: dims.0,
            height: dims.1,
            warmup_cycles: 0,
            measure_cycles: u64::MAX / 4,
            drain_cycles: 0,
            ..SimConfig::default()
        };
        let mesh = Mesh::new(cfg.width, cfg.height);
        let mut gen = SyntheticTraffic::new(pattern, mesh, rate, packet_len, seed);
        let trace = Trace::capture(&mut gen, 150);
        let flits: u64 = trace.packets.iter().map(|p| p.len as u64).sum();
        let packets = trace.len() as u64;
        prop_assume!(packets > 0);

        let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
        let mut model = TraceReplay::new(trace);
        let res = run(
            &mut net,
            &mut model,
            RunMode::ClosedLoop { max_cycles: 300_000 },
            &EnergyModel::default(),
        );
        prop_assert!(res.completed, "{} never drained", design.name());
        prop_assert_eq!(res.stats.events.ejections, flits, "flit loss/duplication");
        prop_assert_eq!(res.accepted_packets, packets, "packet loss");
        prop_assert_eq!(net.reassembly_duplicates(), 0);
        // Conservation: every injected flit either ejected or was dropped
        // (and each drop triggered exactly one retransmission, which is a
        // fresh injection).
        prop_assert_eq!(
            res.stats.events.injections,
            res.stats.events.ejections + res.stats.events.drops
        );
        prop_assert_eq!(res.stats.events.retransmissions, res.stats.events.drops);
    }

    /// DXbar delivers exactly once under any fault plan.
    #[test]
    fn prop_dxbar_exactly_once_under_faults(
        fraction in 0.0f64..=1.0,
        onset in 1u64..200,
        wf in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 0,
            measure_cycles: u64::MAX / 4,
            drain_cycles: 0,
            ..SimConfig::default()
        };
        let mesh = Mesh::new(4, 4);
        let design = if wf { Design::DXbarWf } else { Design::DXbarDor };
        let plan = FaultPlan::generate(&mesh, fraction, onset, onset + 50, seed);
        let mut gen = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.1, 1, seed);
        let trace = Trace::capture(&mut gen, 200);
        let packets = trace.len() as u64;
        prop_assume!(packets > 0);
        let mut net = design.build(&cfg, &plan);
        let mut model = TraceReplay::new(trace);
        let res = run(
            &mut net,
            &mut model,
            RunMode::ClosedLoop { max_cycles: 300_000 },
            &EnergyModel::default(),
        );
        prop_assert!(res.completed, "{} stuck under faults", design.name());
        prop_assert_eq!(res.accepted_packets, packets);
    }

    /// Hop counts at ejection are at least the Manhattan distance (equality
    /// for the minimal designs; BLESS may exceed via deflection).
    #[test]
    fn prop_minimal_designs_route_minimally(
        design in prop::sample::select(vec![
            Design::DXbarDor, Design::DXbarWf, Design::UnifiedDor,
            Design::Buffered4, Design::Buffered8,
        ]),
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 0,
            measure_cycles: u64::MAX / 4,
            drain_cycles: 0,
            ..SimConfig::default()
        };
        let mesh = Mesh::new(4, 4);
        let mut gen = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.1, 1, seed);
        let trace = Trace::capture(&mut gen, 100);
        prop_assume!(!trace.is_empty());
        // Average distance bound: every flit travels exactly its Manhattan
        // distance in a minimal design, so total link traversals must equal
        // the sum of distances.
        let total_distance: u64 = trace
            .packets
            .iter()
            .map(|p| mesh.hop_distance(p.src, p.dst) as u64 * p.len as u64)
            .sum();
        let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
        let mut model = TraceReplay::new(trace);
        let res = run(
            &mut net,
            &mut model,
            RunMode::ClosedLoop { max_cycles: 300_000 },
            &EnergyModel::default(),
        );
        prop_assert!(res.completed);
        prop_assert_eq!(
            res.stats.events.link_traversals, total_distance,
            "minimal design took a non-minimal path"
        );
    }

    /// Energy accounting is additive: the breakdown parts sum to the total,
    /// and more traffic never costs less energy.
    #[test]
    fn prop_energy_monotone_in_load(seed in any::<u64>()) {
        let cfg = SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 100,
            measure_cycles: 400,
            drain_cycles: 200,
            seed,
            ..SimConfig::default()
        };
        let at = |load| {
            let plan = dxbar_noc::RunPlan::synthetic(Design::DXbarDor, &cfg, Pattern::UniformRandom, load);
            dxbar_noc::run(plan).result
        };
        let lo = at(0.05);
        let hi = at(0.25);
        prop_assert!(hi.energy.total_pj() > lo.energy.total_pj());
        for r in [&lo, &hi] {
            let sum = r.energy.crossbar_pj + r.energy.link_pj + r.energy.buffer_pj + r.energy.nack_pj;
            prop_assert!((r.energy.total_pj() - sum).abs() < 1e-6);
        }
    }
}
