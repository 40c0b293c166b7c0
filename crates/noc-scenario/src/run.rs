//! Scenario execution: a [`ScenarioRun`] owns what a scenario adds to a
//! point — the topology override, the island placement and the
//! multi-application traffic — lends it to a [`RunPlan`], and stamps the
//! per-app slice onto the [`RunOutput`] of running it.

use crate::spec::{RouterMix, ScenarioSpec};
use crate::traffic::ScenarioTraffic;
use dxbar_noc::{run, Design, RunOutput, RunPlan};
use noc_core::SimConfig;
use noc_sim::runner::RunMode;
use noc_sim::RunResult;
use noc_topology::Mesh;

/// The base config with the scenario's topology applied.
pub fn scenario_config(cfg: &SimConfig, spec: &ScenarioSpec) -> SimConfig {
    SimConfig {
        topology: spec.topology,
        ..cfg.clone()
    }
}

/// One validated scenario point: `base` design (plus the scenario's island
/// overlay) at `offered_load` (fraction of capacity; each app scales it by
/// its `load_scale`).
pub struct ScenarioRun {
    base: Design,
    cfg: SimConfig,
    /// Per-node designs: `base` except where the mix places an island.
    placement: Vec<Design>,
    /// Display name of the fabric ("Flit-Bless + DAMQ islands").
    fabric: String,
    model: ScenarioTraffic,
    offered_load: f64,
}

impl ScenarioRun {
    pub fn new(
        base: Design,
        cfg: &SimConfig,
        spec: &ScenarioSpec,
        offered_load: f64,
    ) -> Result<Self, String> {
        spec.validate(cfg, base)?;
        let cfg = scenario_config(cfg, spec);
        let mesh = Mesh::for_config(&cfg);
        let placement = mesh
            .nodes()
            .map(|n| spec.mix.island_at(mesh.coord_of(n)).unwrap_or(base))
            .collect();
        let fabric = match spec.mix {
            RouterMix::Uniform => base.name().to_string(),
            RouterMix::Islands { island, .. } => {
                format!("{} + {} islands", base.name(), island.name())
            }
        };
        Ok(ScenarioRun {
            base,
            fabric,
            model: ScenarioTraffic::new(spec, mesh, &cfg, offered_load),
            cfg,
            placement,
            offered_load,
        })
    }

    /// Hand the point's open-loop plan, its traffic and placement borrowed
    /// in, to `exec` — which sets the fault, observer and worker-count
    /// fields as on any other plan and [`run`]s it — and stamp what only the
    /// scenario knows onto the output: the fabric name, the offered load and
    /// the per-application statistics (the global fields aggregate over all
    /// apps as usual).
    pub fn run_with(mut self, exec: impl FnOnce(RunPlan<'_>) -> RunOutput) -> RunOutput {
        let mut plan = RunPlan::model(self.base, &self.cfg, &mut self.model, RunMode::OpenLoop);
        plan.placement = Some(&self.placement);
        let mut out = exec(plan);
        out.result.design = self.fabric;
        out.result.offered_load = Some(self.offered_load);
        out.result.apps = self.model.app_stats();
        out
    }
}

// Signature `benchmark/` calls by name; its only caller. Deleted with the
// next benchmark-tagged PR.
pub fn run_scenario(
    base: Design,
    cfg: &SimConfig,
    spec: &ScenarioSpec,
    offered_load: f64,
) -> Result<RunResult, String> {
    Ok(ScenarioRun::new(base, cfg, spec, offered_load)?
        .run_with(run)
        .result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one valid scenario point of `name`, optionally verified.
    fn scenario(base: Design, name: &str, load: f64, verify: bool) -> RunOutput {
        let c = cfg();
        let spec = ScenarioSpec::named(name, &c).unwrap();
        ScenarioRun::new(base, &c, &spec, load)
            .unwrap()
            .run_with(|plan| run(plan.verified(verify)))
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

    #[test]
    fn interference_run_fills_per_app_stats() {
        let r = scenario(Design::DXbarDor, "interfere2", 0.15, false).result;
        assert_eq!(r.apps.len(), 2);
        assert_eq!(r.apps[0].name, "fg");
        assert_eq!(r.apps[1].name, "bg");
        for a in &r.apps {
            assert!(a.accepted_packets > 0, "{} delivered nothing", a.name);
            assert!(a.avg_packet_latency > 0.0);
            assert!(a.accepted_packets <= a.offered_packets);
        }
        // The per-app split partitions the global aggregate.
        assert_eq!(
            r.apps.iter().map(|a| a.accepted_packets).sum::<u64>(),
            r.accepted_packets
        );
        assert_eq!(r.traffic, "scn:interfere2@0.150");
    }

    #[test]
    fn mixed_fabric_builds_heterogeneous_network() {
        let c = cfg();
        let spec = ScenarioSpec::named("mixed_islands", &c).unwrap();
        let point = || ScenarioRun::new(Design::FlitBless, &c, &spec, 0.1).unwrap();
        let out = point().run_with(|plan| {
            let net = plan.build_network();
            assert!(!net.is_homogeneous());
            assert_eq!(net.design_name(), "Flit-Bless");
            let damq = Mesh::for_config(&c)
                .nodes()
                .filter(|&n| net.router_design_name(n) == "DAMQ")
                .count();
            assert!(damq > 0 && damq < 16);
            run(plan)
        });
        assert_eq!(out.result.design, "Flit-Bless + DAMQ islands");
        assert!(out.result.accepted_packets > 0);
        // The islands are in the fabric that ran: DAMQ routers buffer,
        // Flit-Bless ones (the same plan without its placement) never do.
        assert!(out.result.energy.buffer_pj > 0.0);
        let bless = point().run_with(|mut plan| {
            plan.placement = None;
            run(plan)
        });
        assert_eq!(bless.result.energy.buffer_pj, 0.0);
    }

    #[test]
    fn credit_coupled_mix_is_rejected() {
        let c = cfg();
        let spec = ScenarioSpec::named("mixed_islands", &c).unwrap();
        assert!(ScenarioRun::new(Design::DXbarDor, &c, &spec, 0.1)
            .err()
            .expect("rejected")
            .contains("credit"));
    }

    #[test]
    fn torus_and_cmesh_scenarios_run_verified_clean() {
        for name in ["torus_ur", "cmesh_ur"] {
            let out = scenario(Design::FlitBless, name, 0.1, true);
            let report = out.verify.expect("verified plan");
            assert!(
                report.is_clean(),
                "{name}: {} violations",
                report.total_violations
            );
            assert!(out.result.accepted_packets > 0, "{name} delivered nothing");
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let a = scenario(Design::FlitBless, "interfere2", 0.2, false).result;
        let b = scenario(Design::FlitBless, "interfere2", 0.2, false).result;
        assert_eq!(a.accepted_packets, b.accepted_packets);
        assert_eq!(
            a.avg_packet_latency.to_bits(),
            b.avg_packet_latency.to_bits()
        );
        assert_eq!(a.apps, b.apps);
    }
}
