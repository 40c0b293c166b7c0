//! Resilience-path mutation canaries: with ARQ recovery enabled, a router
//! that silently loses flits produces *perfect-looking delivery statistics*
//! (the NI retransmits every victim), so end-to-end metrics cannot catch the
//! bug — only the conservation/leak oracles can. The honest control run
//! under heavy transient faults must stay clean, so a failure is
//! attributable to the injected bug, not to fault injection itself.

use noc_core::flit::Flit;
use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS};
use noc_core::SimConfig;
use noc_power::energy::EnergyModel;
use noc_resilience::{ResiliencePlan, TransientSpec};
use noc_routing::Algorithm;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::runner::RunMode;
use noc_sim::Network;
use noc_topology::Mesh;
use noc_traffic::generator::SyntheticTraffic;
use noc_traffic::patterns::Pattern;
use noc_verify::{run_observed, Violation, ViolationKind};

/// Age-priority DOR router with unlimited loser buffering (the engine-test
/// vehicle shape). With `vanish_one` set it swallows exactly one in-transit
/// flit — the ARQ layer will dutifully re-deliver a copy, masking the bug
/// from every delivery statistic.
struct Vehicle {
    node: NodeId,
    mesh: Mesh,
    held: Vec<Flit>,
    vanish_one: bool,
    fired: bool,
}

impl RouterModel for Vehicle {
    fn node(&self) -> NodeId {
        self.node
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        // Consume (take) every arrival, as the engine contract requires,
        // returning a credit for each.
        for d in LINK_DIRECTIONS {
            if let Some(f) = ctx.arrivals[d.index()].take() {
                self.held.push(f);
                ctx.credits_out[d.index()] = 1;
            }
        }
        if let Some(inj) = ctx.injection {
            self.held.push(inj);
            ctx.injected = true;
        }
        self.held.sort_by_key(|f| f.age_key());
        let mut used = [false; 5];
        let mut remaining = Vec::new();
        for f in std::mem::take(&mut self.held) {
            let want = Algorithm::Dor.route(&self.mesh, self.node, f.dst);
            let dir = want.iter().next().unwrap();
            if used[dir.index()] {
                remaining.push(f);
                continue;
            }
            used[dir.index()] = true;
            if dir == Direction::Local {
                ctx.ejected.push(f);
                continue;
            }
            // The bug: one arrived (mid-route) flit vanishes — no output,
            // no buffer entry, no drop record.
            if self.vanish_one && !self.fired && f.src != self.node && f.seq != 0 {
                self.fired = true;
                continue;
            }
            ctx.out_links[dir.index()] = Some(f);
        }
        self.held = remaining;
    }

    fn is_idle(&self) -> bool {
        self.held.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.held.len()
    }

    fn design_name(&self) -> &'static str {
        "DXbar DOR"
    }
}

fn cfg() -> SimConfig {
    SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 100,
        measure_cycles: 600,
        // Long enough for the worst ARQ give-up chain (sum of backed-off
        // timeouts ≈ 3k cycles) so the run reaches true quiescence and the
        // end-of-run ledger checks actually fire.
        drain_cycles: 6_000,
        ..SimConfig::default()
    }
}

/// Run at 1, 2 and 4 tile workers; the oracle outcome — clean, or the
/// same violations with the same first one — must not depend on the
/// worker count even with strikes, NACKs and retransmissions in play.
fn run_resilient(vanish_one: bool) -> Result<(), Vec<ViolationKind>> {
    let reference = run_tiled(vanish_one, 1);
    for workers in [2, 4] {
        assert_eq!(
            run_tiled(vanish_one, workers),
            reference,
            "oracle outcome differs at {workers} tile workers"
        );
    }
    reference.map_err(|violations| violations.iter().map(|v| v.kind).collect())
}

fn run_tiled(vanish_one: bool, workers: usize) -> Result<(), Vec<Violation>> {
    let cfg = cfg();
    let mesh = Mesh::new(cfg.width, cfg.height);
    let mut net = Network::new(&cfg, &move |node| {
        Box::new(Vehicle {
            node,
            mesh,
            held: Vec::new(),
            vanish_one,
            fired: false,
        }) as Box<dyn RouterModel>
    });
    net.set_tile_threads(workers);
    net.set_resilience(ResiliencePlan::none().with_transients(TransientSpec::new(1e-3, 23)));
    let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.05, 1, 11);
    let energy = EnergyModel::default();
    let (_, _, report) = run_observed(&mut net, &mut model, RunMode::OpenLoop, &energy, None, true);
    let report = report.expect("verified run");
    if !report.is_clean() {
        return Err(report.violations);
    }
    let (transit_lost, crc_bounced, _) = report.recovery_counts;
    assert!(
        transit_lost + crc_bounced > 0,
        "transient rate high enough that the oracle must see faults"
    );
    Ok(())
}

#[test]
fn honest_run_under_transient_faults_is_clean() {
    assert_eq!(run_resilient(false), Ok(()));
}

#[test]
fn silent_router_drop_is_caught_despite_arq_masking_it() {
    let kinds = run_resilient(true).unwrap_err();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ViolationKind::Conservation | ViolationKind::Leak)),
        "unexpected kinds: {kinds:?}"
    );
}
