//! Campaign specifications: the declarative grid and its expansion into
//! fully-resolved experiment points.

use crate::fnv1a64;
use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::{Design, RunPlan};
use noc_core::SimConfig;
use noc_scenario::{ScenarioRun, ScenarioSpec};
use noc_traffic::patterns::Pattern;
use noc_traffic::splash::SplashApp;
use serde::{Deserialize, Error, Serialize, Value};

/// One axis of workloads for a [`PointGroup`]: an open-loop synthetic
/// sweep (pattern × offered load), a closed-loop SPLASH sweep, or an
/// open-loop scenario sweep (named [`noc_scenario::ScenarioSpec`] ×
/// offered load).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadAxis {
    Synthetic {
        patterns: Vec<Pattern>,
        loads: Vec<f64>,
    },
    Splash {
        apps: Vec<SplashApp>,
        max_cycles: u64,
    },
    /// Scenario names resolve through [`noc_scenario::ScenarioSpec::named`]
    /// against the group's config; the name + load is the whole workload
    /// identity (bursty processes, app regions, router mix and topology all
    /// derive deterministically from the name).
    Scenario {
        scenarios: Vec<String>,
        loads: Vec<f64>,
    },
}

// The vendored serde derive covers unit enums only; payload-carrying enums
// are serialized by hand as tagged objects.
impl Serialize for WorkloadAxis {
    fn to_value(&self) -> Value {
        match self {
            WorkloadAxis::Synthetic { patterns, loads } => Value::Object(vec![
                ("kind".into(), Value::Str("synthetic".into())),
                ("patterns".into(), patterns.to_value()),
                ("loads".into(), loads.to_value()),
            ]),
            WorkloadAxis::Splash { apps, max_cycles } => Value::Object(vec![
                ("kind".into(), Value::Str("splash".into())),
                ("apps".into(), apps.to_value()),
                ("max_cycles".into(), max_cycles.to_value()),
            ]),
            WorkloadAxis::Scenario { scenarios, loads } => Value::Object(vec![
                ("kind".into(), Value::Str("scenario".into())),
                ("scenarios".into(), scenarios.to_value()),
                ("loads".into(), loads.to_value()),
            ]),
        }
    }
}

impl Deserialize for WorkloadAxis {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.field("kind").as_str() {
            Some("synthetic") => Ok(WorkloadAxis::Synthetic {
                patterns: Vec::from_value(v.field("patterns"))?,
                loads: Vec::from_value(v.field("loads"))?,
            }),
            Some("splash") => Ok(WorkloadAxis::Splash {
                apps: Vec::from_value(v.field("apps"))?,
                max_cycles: u64::from_value(v.field("max_cycles"))?,
            }),
            Some("scenario") => Ok(WorkloadAxis::Scenario {
                scenarios: Vec::from_value(v.field("scenarios"))?,
                loads: Vec::from_value(v.field("loads"))?,
            }),
            other => Err(Error::msg(format!(
                "WorkloadAxis.kind must be \"synthetic\", \"splash\" or \"scenario\", got {other:?}"
            ))),
        }
    }
}

/// One resolved workload of a single experiment point.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    Synthetic { pattern: Pattern, load: f64 },
    Splash { app: SplashApp, max_cycles: u64 },
    Scenario { scenario: String, load: f64 },
}

impl Workload {
    /// Short label used for grouping/reporting ("UR", "FFT",
    /// "interfere2", ...).
    pub fn short(&self) -> String {
        match self {
            Workload::Synthetic { pattern, .. } => pattern.abbrev().to_string(),
            Workload::Splash { app, .. } => app.name().to_string(),
            Workload::Scenario { scenario, .. } => scenario.clone(),
        }
    }

    /// The point's x-coordinate in load sweeps (offered load; 0 for
    /// closed-loop workloads, which have no load axis).
    pub fn x(&self) -> f64 {
        match self {
            Workload::Synthetic { load, .. } | Workload::Scenario { load, .. } => *load,
            Workload::Splash { .. } => 0.0,
        }
    }

    /// Human-readable descriptor ("UR@0.30", "SPLASH FFT",
    /// "scn:interfere2@0.30").
    pub fn describe(&self) -> String {
        match self {
            Workload::Synthetic { pattern, load } => format!("{}@{load:.2}", pattern.abbrev()),
            Workload::Splash { app, .. } => format!("SPLASH {}", app.name()),
            Workload::Scenario { scenario, load } => format!("scn:{scenario}@{load:.2}"),
        }
    }
}

impl Serialize for Workload {
    fn to_value(&self) -> Value {
        match self {
            Workload::Synthetic { pattern, load } => Value::Object(vec![
                ("kind".into(), Value::Str("synthetic".into())),
                ("pattern".into(), pattern.to_value()),
                ("load".into(), load.to_value()),
            ]),
            Workload::Splash { app, max_cycles } => Value::Object(vec![
                ("kind".into(), Value::Str("splash".into())),
                ("app".into(), app.to_value()),
                ("max_cycles".into(), max_cycles.to_value()),
            ]),
            Workload::Scenario { scenario, load } => Value::Object(vec![
                ("kind".into(), Value::Str("scenario".into())),
                ("scenario".into(), scenario.to_value()),
                ("load".into(), load.to_value()),
            ]),
        }
    }
}

impl Deserialize for Workload {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.field("kind").as_str() {
            Some("synthetic") => Ok(Workload::Synthetic {
                pattern: Pattern::from_value(v.field("pattern"))?,
                load: f64::from_value(v.field("load"))?,
            }),
            Some("splash") => Ok(Workload::Splash {
                app: SplashApp::from_value(v.field("app"))?,
                max_cycles: u64::from_value(v.field("max_cycles"))?,
            }),
            Some("scenario") => Ok(Workload::Scenario {
                scenario: String::from_value(v.field("scenario"))?,
                load: f64::from_value(v.field("load"))?,
            }),
            other => Err(Error::msg(format!(
                "Workload.kind must be \"synthetic\", \"splash\" or \"scenario\", got {other:?}"
            ))),
        }
    }
}

/// One sub-grid of a campaign: a base configuration crossed with designs,
/// a workload axis, fault fractions and seed replicates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointGroup {
    /// Group label ("fig05", "ablation1_thresh=4", ...). Labels scope
    /// aggregation and reporting, not cache identity: two groups declaring
    /// identical points share cache entries and in-run work.
    pub label: String,
    /// Base simulation configuration; `seed` is overridden per replicate.
    pub config: SimConfig,
    /// Designs to evaluate.
    pub designs: Vec<Design>,
    /// Workload axis (synthetic sweep or SPLASH apps).
    pub workload: WorkloadAxis,
    /// Fault fractions (0.0..=1.0). Empty means a single fault-free run.
    /// Only the DXbar designs model crossbar faults (as in the paper's
    /// fault study): a fraction that faults a router of any other design is
    /// a validation error. Synthetic workloads only.
    pub fault_fractions: Vec<f64>,
    /// Transient soft-error rates (expected events per link-cycle) for the
    /// resilience study. Empty means no transient process. Any non-zero
    /// entry makes the point a resilience run: CRC + NI retransmission are
    /// armed and the seeded [`noc_resilience::ResiliencePlan`] is applied.
    /// Synthetic workloads only.
    pub transient_rates: Vec<f64>,
    /// Permanent link-fault counts (failed physical channels, placed so the
    /// mesh provably stays connected; a count the mesh cannot take that way
    /// is a validation error). Empty means none. Synthetic workloads only.
    pub link_faults: Vec<usize>,
    /// Replicate seeds. Empty means one replicate at `config.seed`.
    pub seeds: Vec<u64>,
    /// Optional traffic relabel applied to every result of the group
    /// (ablation bins tag runs like "UR thresh=4"). Part of cache identity.
    pub tag: Option<String>,
}

impl PointGroup {
    /// The group's workload axis, expanded: patterns × loads, apps, or
    /// scenarios × loads. Empty when any of the axis's lists is.
    fn workloads(&self) -> Vec<Workload> {
        match &self.workload {
            WorkloadAxis::Synthetic { patterns, loads } => patterns
                .iter()
                .flat_map(|&pattern| {
                    loads
                        .iter()
                        .map(move |&load| Workload::Synthetic { pattern, load })
                })
                .collect(),
            WorkloadAxis::Splash { apps, max_cycles } => apps
                .iter()
                .map(|&app| Workload::Splash {
                    app,
                    max_cycles: *max_cycles,
                })
                .collect(),
            WorkloadAxis::Scenario { scenarios, loads } => scenarios
                .iter()
                .flat_map(|name| {
                    loads.iter().map(move |&load| Workload::Scenario {
                        scenario: name.clone(),
                        load,
                    })
                })
                .collect(),
        }
    }
}

/// How often the executor re-attempts a panicking point before recording
/// it as failed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = fail immediately).
    pub max_retries: u32,
}

/// A declarative experiment campaign: a named list of point groups plus a
/// retry policy. Serializable to/from JSON (`campaign_run` spec files).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    pub name: String,
    pub retry: RetryPolicy,
    pub groups: Vec<PointGroup>,
}

impl CampaignSpec {
    pub fn new(name: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            retry: RetryPolicy::default(),
            groups: Vec::new(),
        }
    }

    /// Builder-style group append.
    pub fn with_group(mut self, group: PointGroup) -> CampaignSpec {
        self.groups.push(group);
        self
    }

    /// Concatenate several specs into one campaign (the `repro_all` union
    /// grid). Group labels are kept as-is; the retry policy is the maximum
    /// of the parts.
    pub fn merged(name: impl Into<String>, specs: impl IntoIterator<Item = CampaignSpec>) -> Self {
        let mut out = CampaignSpec::new(name);
        for s in specs {
            out.retry.max_retries = out.retry.max_retries.max(s.retry.max_retries);
            out.groups.extend(s.groups);
        }
        out
    }

    /// Check the spec; returns the first problem. The spec's own rules are
    /// about its axes: none may be empty, fault fractions lie in [0, 1],
    /// transient rates are finite and non-negative, and only synthetic
    /// workloads take the fault and resilience axes. Every point is then
    /// built — its generated faults, and its scenario point — and the plan
    /// it runs held to [`RunPlan::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.groups.is_empty() {
            return Err(format!("campaign {:?} has no point groups", self.name));
        }
        for g in &self.groups {
            if g.designs.is_empty() {
                return Err(format!("group {:?} has no designs", g.label));
            }
            if g.workloads().is_empty() {
                return Err(format!("group {:?} has an empty workload axis", g.label));
            }
            let synthetic = matches!(g.workload, WorkloadAxis::Synthetic { .. });
            if !synthetic && g.fault_fractions.iter().any(|&f| f > 0.0) {
                return Err(format!(
                    "group {:?}: SPLASH and scenario workloads run fault-free \
                     (fault_fractions must be empty or zero)",
                    g.label
                ));
            }
            if let Some(&f) = g.fault_fractions.iter().find(|f| !(0.0..=1.0).contains(*f)) {
                return Err(format!(
                    "group {:?}: fault fraction {f} outside [0,1]",
                    g.label
                ));
            }
            if let Some(&r) = g
                .transient_rates
                .iter()
                .find(|r| !r.is_finite() || **r < 0.0)
            {
                return Err(format!(
                    "group {:?}: transient rate {r} must be finite and >= 0",
                    g.label
                ));
            }
            let has_resilience =
                g.transient_rates.iter().any(|&r| r > 0.0) || g.link_faults.iter().any(|&k| k > 0);
            if has_resilience && !synthetic {
                return Err(format!(
                    "group {:?}: the resilience axes (transient_rates / link_faults) \
                     apply to synthetic workloads only",
                    g.label
                ));
            }
        }
        for p in self.points() {
            p.build(false)
                .and_then(|mut point| point.plan().validate())
                .map_err(|e| format!("group {:?}: {e}", p.group))?;
        }
        Ok(())
    }

    /// Expand the grid into fully-resolved points, in deterministic order:
    /// groups in declaration order, then designs × workload × fault
    /// fraction × seed.
    pub fn points(&self) -> Vec<PointSpec> {
        let mut out = Vec::new();
        for g in &self.groups {
            let fractions = or_one(&g.fault_fractions, 0.0);
            let transient_rates = or_one(&g.transient_rates, 0.0);
            let link_faults = or_one(&g.link_faults, 0);
            let seeds = or_one(&g.seeds, g.config.seed);
            let workloads = g.workloads();
            for &design in &g.designs {
                for w in &workloads {
                    for &fault_fraction in &fractions {
                        for &transient_rate in &transient_rates {
                            for &link_fault_count in &link_faults {
                                for &seed in &seeds {
                                    out.push(PointSpec {
                                        group: g.label.clone(),
                                        design,
                                        workload: w.clone(),
                                        fault_fraction,
                                        transient_rate,
                                        link_fault_count,
                                        seed,
                                        tag: g.tag.clone(),
                                        config: SimConfig {
                                            seed,
                                            ..g.config.clone()
                                        },
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Stable content hash of the whole spec (manifest provenance).
    pub fn content_hash(&self) -> String {
        let json = serde_json::to_string(self).expect("serialize spec");
        format!("{:016x}", fnv1a64(json.as_bytes()))
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize spec")
    }

    pub fn from_json(s: &str) -> Result<CampaignSpec, String> {
        serde_json::from_str::<CampaignSpec>(s).map_err(|e| e.to_string())
    }
}

/// `axis`, or the one value `default` where the axis is empty.
fn or_one<T: Copy>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis.to_vec()
    }
}

/// One fully-resolved experiment point: everything needed to run and to
/// identify one simulation.
#[derive(Debug, Clone, Serialize)]
pub struct PointSpec {
    /// Label of the group that declared this point (reporting only).
    pub group: String,
    pub design: Design,
    pub workload: Workload,
    /// Fraction of routers given one crossbar fault (0.0 = fault-free).
    pub fault_fraction: f64,
    /// Transient soft-error rate in events per link-cycle (0.0 = none).
    pub transient_rate: f64,
    /// Number of permanently failed physical channels (0 = none).
    pub link_fault_count: usize,
    /// Replicate seed (already substituted into `config.seed`).
    pub seed: u64,
    /// Optional traffic relabel applied to the result.
    pub tag: Option<String>,
    /// Complete simulation configuration for this point.
    pub config: SimConfig,
}

impl PointSpec {
    /// The canonical identity of this point for caching and in-run
    /// deduplication: every field that influences the simulation's outcome.
    /// The `group` label is deliberately excluded — two groups declaring
    /// the same experiment share one result.
    pub fn cache_identity(&self) -> Value {
        Value::Object(vec![
            ("design".into(), self.design.to_value()),
            ("workload".into(), self.workload.to_value()),
            ("fault_fraction".into(), self.fault_fraction.to_value()),
            ("transient_rate".into(), self.transient_rate.to_value()),
            ("link_fault_count".into(), self.link_fault_count.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("tag".into(), self.tag.to_value()),
            ("config".into(), self.config.to_value()),
        ])
    }

    /// Content-addressed cache key: FNV-1a 64 of the canonical identity
    /// JSON, salted with the code version. The JSON writer is deterministic
    /// (field order preserved, shortest-roundtrip floats), so the key is
    /// stable across runs, platforms and Rust releases.
    pub fn cache_key(&self, code_salt: &str) -> String {
        let json = self.cache_identity().to_json();
        format!(
            "{:016x}",
            fnv1a64(format!("{code_salt}\0{json}").as_bytes())
        )
    }

    /// Whether this point runs under the resilience layer (transient soft
    /// errors and/or permanent link faults, with CRC + NI retransmission).
    pub fn has_resilience(&self) -> bool {
        self.transient_rate > 0.0 || self.link_fault_count > 0
    }

    /// One-line descriptor for logs and the manifest.
    pub fn describe(&self) -> String {
        let mut s = format!("{} {}", self.design.name(), self.workload.describe());
        if self.fault_fraction > 0.0 {
            s.push_str(&format!(" faults={:.0}%", self.fault_fraction * 100.0));
        }
        if self.transient_rate > 0.0 {
            s.push_str(&format!(" transients={:.1e}", self.transient_rate));
        }
        if self.link_fault_count > 0 {
            s.push_str(&format!(" deadlinks={}", self.link_fault_count));
        }
        s.push_str(&format!(" seed={:#x}", self.seed));
        s
    }
}

/// What a point runs beyond its spec: its seeded faults and, for a scenario
/// workload, the scenario point that lends the plan traffic and placement.
pub(crate) struct PointRun<'p> {
    point: &'p PointSpec,
    faults: ResiliencePlan,
    pub(crate) scenario: Option<ScenarioRun>,
}

impl PointSpec {
    /// Build what the point runs, as the paper does: faults seeded by the
    /// run seed manifest during warmup; a zero fraction, count or rate
    /// generates none of its class. `traffic` builds a scenario's traffic
    /// model, which a point that is only validated does without. `Err` for
    /// a link-fault count the mesh cannot take connected, or a scenario
    /// that does not resolve or is not admitted.
    pub(crate) fn build(&self, traffic: bool) -> Result<PointRun<'_>, String> {
        let cfg = &self.config;
        // The generators place faults on the fabric the config describes.
        cfg.validate()?;
        let faults = ResiliencePlan::try_generate(
            &Mesh::for_config(cfg),
            self.fault_fraction,
            self.link_fault_count,
            self.transient_rate,
            cfg.warmup_cycles / 2,
            cfg.warmup_cycles.max(1),
            cfg.seed,
        )?;
        let scenario = match &self.workload {
            Workload::Scenario { scenario, load } => {
                let spec = ScenarioSpec::resolve(scenario, cfg)?;
                let point = ScenarioRun::admit(self.design, cfg, &spec, *load)?;
                Some(if traffic {
                    point.with_traffic(&spec)
                } else {
                    point
                })
            }
            _ => None,
        };
        Ok(PointRun {
            point: self,
            faults,
            scenario,
        })
    }
}

impl PointRun<'_> {
    /// The complete plan the point runs: its workload, a scenario's traffic
    /// and placement, and its faults.
    pub(crate) fn plan(&mut self) -> RunPlan<'_> {
        let p = self.point;
        let plan = match (&p.workload, &mut self.scenario) {
            (_, Some(scenario)) => scenario.plan(),
            (&Workload::Synthetic { pattern, load }, None) => {
                RunPlan::synthetic(p.design, &p.config, pattern, load)
            }
            (&Workload::Splash { app, max_cycles }, None) => {
                RunPlan::splash(p.design, &p.config, app, max_cycles)
            }
            (Workload::Scenario { .. }, None) => unreachable!("build() lends every scenario"),
        };
        plan.faults(&self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CODE_VERSION;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 50,
            measure_cycles: 200,
            drain_cycles: 100,
            ..SimConfig::default()
        }
    }

    fn spec() -> CampaignSpec {
        CampaignSpec::new("t").with_group(PointGroup {
            label: "g".into(),
            config: tiny_cfg(),
            designs: vec![Design::DXbarDor, Design::DXbarWf],
            workload: WorkloadAxis::Synthetic {
                patterns: vec![Pattern::UniformRandom],
                loads: vec![0.1, 0.2, 0.3],
            },
            fault_fractions: vec![0.0, 0.5],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![1, 2],
            tag: None,
        })
    }

    #[test]
    fn expansion_is_the_full_cartesian_product() {
        let pts = spec().points();
        assert_eq!(pts.len(), 2 * 3 * 2 * 2);
        // Seed lands in the config.
        assert!(pts.iter().all(|p| p.config.seed == p.seed));
        // Deterministic order: two expansions agree.
        let again = spec().points();
        for (a, b) in pts.iter().zip(&again) {
            assert_eq!(a.cache_key(CODE_VERSION), b.cache_key(CODE_VERSION));
        }
    }

    #[test]
    fn empty_axes_default_to_single_values() {
        let mut s = spec();
        s.groups[0].fault_fractions.clear();
        s.groups[0].seeds.clear();
        let pts = s.points();
        assert_eq!(pts.len(), 2 * 3);
        assert!(pts.iter().all(|p| p.fault_fraction == 0.0));
        assert!(pts.iter().all(|p| p.seed == tiny_cfg().seed));
    }

    #[test]
    fn resilience_axes_expand_and_mark_points() {
        let mut s = spec();
        s.groups[0].transient_rates = vec![0.0, 1e-3];
        s.groups[0].link_faults = vec![0, 2];
        let pts = s.points();
        assert_eq!(pts.len(), 2 * 3 * 2 * 2 * 2 * 2);
        assert!(pts.iter().any(|p| p.has_resilience()));
        assert!(pts
            .iter()
            .any(|p| p.transient_rate == 0.0 && p.link_fault_count == 0 && !p.has_resilience()));
    }

    #[test]
    fn cache_key_changes_with_every_identity_field() {
        let base = spec().points().remove(0);
        let k = |p: &PointSpec| p.cache_key(CODE_VERSION);
        let base_key = k(&base);

        let mut p = base.clone();
        p.seed = 99;
        p.config.seed = 99;
        assert_ne!(k(&p), base_key, "seed must invalidate");

        let mut p = base.clone();
        p.design = Design::Scarab;
        assert_ne!(k(&p), base_key, "design must invalidate");

        let mut p = base.clone();
        p.workload = Workload::Synthetic {
            pattern: Pattern::UniformRandom,
            load: 0.11,
        };
        assert_ne!(k(&p), base_key, "load must invalidate");

        let mut p = base.clone();
        p.fault_fraction = 0.25;
        assert_ne!(k(&p), base_key, "fault fraction must invalidate");

        let mut p = base.clone();
        p.transient_rate = 1e-4;
        assert_ne!(k(&p), base_key, "transient rate must invalidate");

        let mut p = base.clone();
        p.link_fault_count = 2;
        assert_ne!(k(&p), base_key, "link fault count must invalidate");

        let mut p = base.clone();
        p.config.buffer_depth = 8;
        assert_ne!(k(&p), base_key, "config field must invalidate");

        let mut p = base.clone();
        p.tag = Some("relabelled".into());
        assert_ne!(k(&p), base_key, "tag must invalidate");

        // The code-version salt invalidates everything at once.
        assert_ne!(base.cache_key("some-other-code-version"), base_key);

        // But the group label does NOT change identity.
        let mut p = base.clone();
        p.group = "another-figure".into();
        assert_eq!(k(&p), base_key, "group label is not part of identity");
    }

    #[test]
    fn spec_json_roundtrip() {
        let mut s = spec();
        s.groups.push(PointGroup {
            label: "splash".into(),
            config: tiny_cfg(),
            designs: vec![Design::Buffered4],
            workload: WorkloadAxis::Splash {
                apps: vec![SplashApp::Fft],
                max_cycles: 10_000,
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![],
            tag: Some("FFT tagged".into()),
        });
        let json = s.to_json();
        let back = CampaignSpec::from_json(&json).expect("roundtrip");
        assert_eq!(back.content_hash(), s.content_hash());
        assert_eq!(back.points().len(), s.points().len());
        for (a, b) in s.points().iter().zip(back.points().iter()) {
            assert_eq!(a.cache_key(CODE_VERSION), b.cache_key(CODE_VERSION));
        }
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(CampaignSpec::new("empty").validate().is_err());

        let mut s = spec();
        s.groups[0].designs.clear();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.groups[0].fault_fractions = vec![1.5];
        assert!(s.validate().is_err());

        let mut s = spec();
        s.groups[0].config.width = 1;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.groups[0].workload = WorkloadAxis::Synthetic {
            patterns: vec![],
            loads: vec![0.1],
        };
        assert!(s.validate().is_err());

        let mut s = spec();
        s.groups[0].transient_rates = vec![-1e-3];
        assert!(s.validate().is_err());

        // Resilience axes require an open-loop synthetic workload.
        let mut s = spec();
        s.groups[0].transient_rates = vec![1e-3];
        s.groups[0].workload = WorkloadAxis::Splash {
            apps: vec![SplashApp::Fft],
            max_cycles: 10_000,
        };
        assert!(s.validate().is_err());

        let mut s = spec();
        s.groups[0].transient_rates = vec![1e-3];
        s.groups[0].link_faults = vec![1, 2];
        assert!(s.validate().is_ok());

        assert!(spec().validate().is_ok());
    }

    #[test]
    fn every_point_plan_is_validated_with_its_faults() {
        // Crossbar faults on a design without a fault model.
        let mut s = spec();
        s.groups[0].designs.push(Design::FlitBless);
        let err = s.validate().unwrap_err();
        assert!(err.contains("only meaningful for dxbar"), "{err}");
        assert!(err.ends_with("not Flit-Bless"), "{err}");
        // A fraction that faults no router of the 4x4 mesh is fault-free.
        s.groups[0].fault_fractions = vec![0.0, 0.01];
        s.validate().unwrap();

        // Link-fault counts the 4x4 mesh (24 channels) cannot take while
        // staying connected: an error, not a panic in every point.
        let mut s = spec();
        s.groups[0].link_faults = vec![2, 500];
        let err = s.validate().unwrap_err();
        assert_eq!(err, "group \"g\": cannot fail 500 of 24 channels");
        s.groups[0].link_faults = vec![24];
        let err = s.validate().unwrap_err();
        assert!(err.contains("could not place 24 link faults"), "{err}");
    }

    #[test]
    fn validation_bounds_the_preallocated_sizes() {
        use noc_core::config::{MAX_BUFFER_DEPTH, MAX_PACKET_LEN, MAX_SOURCE_QUEUE_CAP};
        let with = |set: &dyn Fn(&mut SimConfig)| {
            let mut s = spec();
            set(&mut s.groups[0].config);
            s.validate()
        };
        for depth in [0, MAX_BUFFER_DEPTH + 1, 1_000_000_000] {
            let err = with(&|c| c.buffer_depth = depth).unwrap_err();
            assert!(err.contains("buffer_depth must be in 1..="), "{err}");
        }
        for cap in [0, MAX_SOURCE_QUEUE_CAP + 1, 1_000_000_000] {
            let err = with(&|c| c.source_queue_cap = cap).unwrap_err();
            assert!(err.contains("source_queue_cap must be in 1..="), "{err}");
        }
        for len in [0, MAX_PACKET_LEN + 1, 100] {
            let err = with(&|c| c.packet_len = len as u8).unwrap_err();
            assert!(err.contains("packet_len must be in 1..="), "{err}");
        }
        for (warmup, measure) in [(u64::MAX, 200), (50, u64::MAX)] {
            let err = with(&|c| (c.warmup_cycles, c.measure_cycles) = (warmup, measure));
            assert!(err.unwrap_err().contains("must fit in u64"));
        }
        assert!(with(&|c| c.buffer_depth = MAX_BUFFER_DEPTH).is_ok());
        assert!(with(&|c| c.source_queue_cap = MAX_SOURCE_QUEUE_CAP).is_ok());
        assert!(with(&|c| c.packet_len = MAX_PACKET_LEN as u8).is_ok());
    }

    #[test]
    fn bit_permutations_off_a_power_of_two_fail_validation() {
        use noc_core::config::Topology;
        let pow2 = [
            Pattern::BitReversal,
            Pattern::Butterfly,
            Pattern::Complement,
            Pattern::PerfectShuffle,
        ];
        let with = |pattern, (width, height), topology| {
            let mut s = spec();
            let g = &mut s.groups[0];
            // Fault-free deflection designs: a turn-model row on a torus
            // can fail on its channel-dependency cycle first.
            g.designs = vec![Design::FlitBless, Design::MinBd];
            g.fault_fractions.clear();
            g.config.width = width;
            g.config.height = height;
            g.config.topology = topology;
            g.workload = WorkloadAxis::Synthetic {
                patterns: vec![Pattern::UniformRandom, pattern],
                loads: vec![0.3],
            };
            s.validate()
        };
        for topology in [Topology::Mesh, Topology::Torus, Topology::CMesh] {
            for shape in [(2, 3), (3, 5), (4, 6), (6, 6)] {
                for pattern in pow2 {
                    let err = with(pattern, shape, topology).unwrap_err();
                    assert!(err.contains("power-of-two"), "{err}");
                    assert!(err.contains(pattern.abbrev()), "{err}");
                }
            }
            for pattern in pow2 {
                with(pattern, (4, 4), topology).unwrap();
            }
        }
    }

    fn scenario_group() -> PointGroup {
        PointGroup {
            label: "scn".into(),
            config: tiny_cfg(),
            designs: vec![Design::FlitBless, Design::Damq],
            workload: WorkloadAxis::Scenario {
                scenarios: vec!["mmpp_ur".into(), "interfere2:1.500".into()],
                loads: vec![0.1, 0.2],
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![1],
            tag: None,
        }
    }

    #[test]
    fn scenario_axis_expands_validates_and_roundtrips() {
        let s = CampaignSpec::new("scn").with_group(scenario_group());
        s.validate().expect("scenario spec validates");
        let pts = s.points();
        assert_eq!(pts.len(), 2 * 2 * 2);
        assert!(pts.iter().all(|p| matches!(
            p.workload,
            Workload::Scenario { ref load, .. } if (0.0..=1.0).contains(load)
        )));
        assert_eq!(pts[0].workload.short(), "mmpp_ur");
        assert_eq!(pts[0].workload.describe(), "scn:mmpp_ur@0.10");

        let back = CampaignSpec::from_json(&s.to_json()).expect("roundtrip");
        assert_eq!(back.content_hash(), s.content_hash());
        for (a, b) in s.points().iter().zip(back.points().iter()) {
            assert_eq!(a.cache_key(CODE_VERSION), b.cache_key(CODE_VERSION));
        }
    }

    #[test]
    fn scenario_cache_key_tracks_name_and_load() {
        let s = CampaignSpec::new("scn").with_group(scenario_group());
        let base = s.points().remove(0);
        let base_key = base.cache_key(CODE_VERSION);

        let mut p = base.clone();
        p.workload = Workload::Scenario {
            scenario: "pareto_ur".into(),
            load: base.workload.x(),
        };
        assert_ne!(p.cache_key(CODE_VERSION), base_key, "name must invalidate");

        let mut p = base.clone();
        p.workload = Workload::Scenario {
            scenario: "mmpp_ur".into(),
            load: 0.11,
        };
        assert_ne!(p.cache_key(CODE_VERSION), base_key, "load must invalidate");

        // A scenario point and a synthetic point never collide.
        let mut p = base.clone();
        p.workload = Workload::Synthetic {
            pattern: Pattern::UniformRandom,
            load: base.workload.x(),
        };
        assert_ne!(p.cache_key(CODE_VERSION), base_key);
    }

    #[test]
    fn scenario_validation_catches_bad_axes() {
        // Unknown name: the error carries the known-scenarios listing.
        let mut s = CampaignSpec::new("scn").with_group(scenario_group());
        s.groups[0].workload = WorkloadAxis::Scenario {
            scenarios: vec!["no_such_scenario".into()],
            loads: vec![0.1],
        };
        let err = s.validate().unwrap_err();
        assert!(err.contains("no_such_scenario"), "{err}");
        assert!(err.contains("known scenarios"), "{err}");

        // A credit-coupled base design under a router-island mix.
        let mut s = CampaignSpec::new("scn").with_group(scenario_group());
        s.groups[0].designs = vec![Design::DXbarDor];
        s.groups[0].workload = WorkloadAxis::Scenario {
            scenarios: vec!["mixed_islands".into()],
            loads: vec![0.1],
        };
        let err = s.validate().unwrap_err();
        assert!(err.contains("credit"), "{err}");

        // Scenario workloads reject the fault/resilience axes, and so do
        // SPLASH ones (a zero fraction is the fault-free run and passes).
        let mut s = CampaignSpec::new("scn").with_group(scenario_group());
        s.groups[0].fault_fractions = vec![0.3];
        assert!(s.validate().is_err());
        s.groups[0].workload = WorkloadAxis::Splash {
            apps: vec![SplashApp::Fft],
            max_cycles: 1_000,
        };
        assert!(s.validate().unwrap_err().contains("fault-free"));
        s.groups[0].fault_fractions = vec![0.0];
        assert!(s.validate().is_ok());
        let mut s = CampaignSpec::new("scn").with_group(scenario_group());
        s.groups[0].link_faults = vec![2];
        assert!(s.validate().is_err());

        // Empty axes and out-of-range loads.
        let mut s = CampaignSpec::new("scn").with_group(scenario_group());
        s.groups[0].workload = WorkloadAxis::Scenario {
            scenarios: vec![],
            loads: vec![0.1],
        };
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::new("scn").with_group(scenario_group());
        s.groups[0].workload = WorkloadAxis::Scenario {
            scenarios: vec!["mmpp_ur".into()],
            loads: vec![1.5],
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn merged_concatenates_groups() {
        let m = CampaignSpec::merged("union", [spec(), spec()]);
        assert_eq!(m.groups.len(), 2);
        assert_eq!(m.points().len(), 2 * spec().points().len());
    }
}
