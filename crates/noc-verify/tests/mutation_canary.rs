//! Runtime mutation canaries: a rogue router model with injectable bugs
//! must be caught by the oracle suite, and the same model with the bugs
//! switched off must run clean (so a failure is attributable to the bug,
//! not to the vehicle).

use noc_core::flit::{Flit, PacketId};
use noc_core::types::{Direction, NodeId, LINK_DIRECTIONS};
use noc_core::SimConfig;
use noc_power::energy::EnergyModel;
use noc_routing::Algorithm;
use noc_sim::router::{RouterModel, StepCtx};
use noc_sim::runner::RunMode;
use noc_sim::Network;
use noc_topology::Mesh;
use noc_traffic::generator::SyntheticTraffic;
use noc_traffic::patterns::Pattern;
use noc_verify::{
    run_observed, DesignProfile, RouteRule, Verifier, VerifyOptions, Violation, ViolationKind,
};

/// Which deliberate bug the rogue router injects (once per router).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bug {
    /// Correct behaviour — the control case.
    None,
    /// Eject the same flit twice (duplication in the ejection path).
    DuplicateEject,
    /// Forward one flit through a direction outside its DOR route set.
    Misroute,
    /// Silently lose one flit (neither buffered, forwarded, nor dropped).
    Vanish,
    /// Report one flit as dropped although the claimed design never drops.
    IllegalDrop,
    /// Emit a flit that never entered the router.
    Phantom,
    /// Forward one flit through the ring direction *opposite* its
    /// shortest-path DOR choice — on the torus, taking the wraparound the
    /// long way round. The wrap-aware route-legality profile must fire.
    TorusLongWay,
}

/// Minimal age-priority DOR router with unlimited loser buffering — the
/// engine-test vehicle shape — held to the strict rules of [`rules`].
struct RogueRouter {
    node: NodeId,
    mesh: Mesh,
    held: Vec<Flit>,
    bug: Bug,
    fired: bool,
}

impl RogueRouter {
    fn sabotage_output(&mut self, ctx: &mut StepCtx, f: Flit, want: Direction) -> bool {
        match self.bug {
            Bug::Misroute if !self.fired => {
                let illegal = LINK_DIRECTIONS.into_iter().find(|&d| {
                    d != want
                        && self.mesh.neighbor(self.node, d).is_some()
                        && ctx.out_links[d.index()].is_none()
                });
                if let Some(d) = illegal {
                    self.fired = true;
                    ctx.out_links[d.index()] = Some(f);
                    return true;
                }
                false
            }
            Bug::TorusLongWay if !self.fired => {
                let opp = want.opposite();
                if self.mesh.neighbor(self.node, opp).is_some()
                    && ctx.out_links[opp.index()].is_none()
                {
                    self.fired = true;
                    ctx.out_links[opp.index()] = Some(f);
                    return true;
                }
                false
            }
            Bug::Vanish if !self.fired => {
                self.fired = true;
                true // swallowed: no output, no buffer entry
            }
            Bug::IllegalDrop if !self.fired => {
                self.fired = true;
                ctx.dropped.push(f);
                true
            }
            _ => false,
        }
    }
}

impl RouterModel for RogueRouter {
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
                if self.bug == Bug::DuplicateEject && !self.fired {
                    self.fired = true;
                    ctx.ejected.push(f);
                }
                continue;
            }
            if self.sabotage_output(ctx, f, dir) {
                continue;
            }
            ctx.out_links[dir.index()] = Some(f);
        }
        self.held = remaining;
        if self.bug == Bug::Phantom && !self.fired {
            let spare = LINK_DIRECTIONS.into_iter().find(|&d| {
                self.mesh.neighbor(self.node, d).is_some() && ctx.out_links[d.index()].is_none()
            });
            if let Some(d) = spare {
                self.fired = true;
                let dst = self.mesh.neighbor(self.node, d).unwrap();
                ctx.out_links[d.index()] = Some(Flit::synthetic(
                    PacketId(u64::MAX),
                    self.node,
                    dst,
                    ctx.cycle,
                ));
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.held.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.held.len()
    }

    fn design_name(&self) -> &'static str {
        "Rogue DOR"
    }
}

/// What the oracles hold the rogue router to: the DOR turn model (on the
/// torus, its wrap-aware form), DXbar's storage bound of 4 x depth, one
/// grant per input row and no drops.
fn rules(cfg: &SimConfig) -> DesignProfile {
    DesignProfile {
        route: RouteRule::Turn(Algorithm::Dor),
        router_capacity: 4 * cfg.buffer_depth,
        fifo_capacity: 0,
        dual_input: false,
        drops_allowed: false,
    }
}

fn cfg() -> SimConfig {
    SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 200,
        ..SimConfig::default()
    }
}

fn run_with_bug(bug: Bug) -> Result<(), Vec<ViolationKind>> {
    run_on(bug, noc_topology::Topology::Mesh)
}

/// Run under the oracles at 1, 2 and 4 tile workers (the 4x4 mesh cuts
/// into halves and into a 2x2 tile grid). The worker count must be
/// invisible to the oracles: the same violations, the first one included,
/// at every setting.
fn run_on(bug: Bug, topology: noc_topology::Topology) -> Result<(), Vec<ViolationKind>> {
    let reference = run_tiled(bug, topology, 1);
    for workers in [2, 4] {
        assert_eq!(
            run_tiled(bug, topology, workers),
            reference,
            "{bug:?}: oracle outcome differs at {workers} tile workers"
        );
    }
    reference.map_err(|violations| violations.iter().map(|v| v.kind).collect())
}

fn run_tiled(
    bug: Bug,
    topology: noc_topology::Topology,
    workers: usize,
) -> Result<(), Vec<Violation>> {
    let cfg = SimConfig { topology, ..cfg() };
    let mesh = Mesh::for_config(&cfg);
    let mut net = Network::new(&cfg, &move |node| {
        Box::new(RogueRouter {
            node,
            mesh,
            held: Vec::new(),
            bug,
            fired: false,
        }) as Box<dyn RouterModel>
    });
    net.set_tile_threads(workers);
    let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.05, 1, 11);
    let energy = EnergyModel::default();
    let rows = vec![rules(&cfg); mesh.num_nodes()];
    let verifier = Verifier::new("Rogue DOR", mesh, rows, VerifyOptions::default());
    let (_, _, report) = run_observed(
        &mut net,
        &mut model,
        RunMode::OpenLoop,
        &energy,
        None,
        Some(verifier),
    );
    let report = report.expect("verified run");
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.violations)
    }
}

#[test]
fn control_rogue_without_bug_is_clean() {
    assert_eq!(run_with_bug(Bug::None), Ok(()));
}

#[test]
fn duplicate_ejection_is_caught() {
    let kinds = run_with_bug(Bug::DuplicateEject).unwrap_err();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ViolationKind::Duplicate | ViolationKind::Conservation)),
        "unexpected kinds: {kinds:?}"
    );
}

#[test]
fn misroute_outside_turn_model_is_caught() {
    let kinds = run_with_bug(Bug::Misroute).unwrap_err();
    assert!(
        kinds.contains(&ViolationKind::RouteIllegal),
        "unexpected kinds: {kinds:?}"
    );
}

#[test]
fn vanished_flit_is_caught() {
    let kinds = run_with_bug(Bug::Vanish).unwrap_err();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ViolationKind::Conservation | ViolationKind::Leak)),
        "unexpected kinds: {kinds:?}"
    );
}

#[test]
fn illegal_drop_is_caught() {
    let kinds = run_with_bug(Bug::IllegalDrop).unwrap_err();
    assert!(
        kinds.contains(&ViolationKind::Leak),
        "unexpected kinds: {kinds:?}"
    );
}

#[test]
fn control_rogue_on_torus_is_clean() {
    // Wrap-aware DOR on the torus is exactly what the profile enforces:
    // a correct router (which does take wrap links on short-ring routes)
    // must run clean.
    assert_eq!(run_on(Bug::None, noc_topology::Topology::Torus), Ok(()));
}

#[test]
fn torus_long_way_hop_is_caught() {
    let kinds = run_on(Bug::TorusLongWay, noc_topology::Topology::Torus).unwrap_err();
    assert!(
        kinds.contains(&ViolationKind::RouteIllegal),
        "unexpected kinds: {kinds:?}"
    );
}

#[test]
fn phantom_flit_is_caught() {
    let kinds = run_with_bug(Bug::Phantom).unwrap_err();
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, ViolationKind::Phantom | ViolationKind::Conservation)),
        "unexpected kinds: {kinds:?}"
    );
}
