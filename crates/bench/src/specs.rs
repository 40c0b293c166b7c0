//! Campaign specs for every figure and ablation of the evaluation, and
//! the one table ([`REGISTRY`]) that says which of them exist.
//!
//! Each builder returns the declarative [`CampaignSpec`] that one renderer
//! of [`crate::figures`] draws from; [`repro_all`] is the union of the
//! paper's rows, and [`preset`] resolves names for `fig`, `campaign_run`
//! and the daemon. The specs honour `DXBAR_QUICK` (shrunk windows) and
//! `DXBAR_SEEDS` (replicates), so a spec written to JSON captures the mode
//! it was built under.
//!
//! Two groups declaring the same experiment (fig05 and fig06 sweep the
//! identical UR grid) still cost one simulation each: the campaign engine
//! deduplicates by content identity, and cached results are shared.

use crate::figures::{self, Render};
use crate::{paper_config, quick_mode, replicate_seeds, splash_cap, PAPER_LOADS};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::{Design, SimConfig};
use noc_campaign::{CampaignSpec, PointGroup, WorkloadAxis};

/// The fault percentages of the paper's Figs. 11/12.
pub const FAULT_PERCENTS: [u32; 5] = [0, 25, 50, 75, 100];

fn ur_loads() -> WorkloadAxis {
    WorkloadAxis::Synthetic {
        patterns: vec![Pattern::UniformRandom],
        loads: PAPER_LOADS.to_vec(),
    }
}

fn ur_at(load: f64) -> WorkloadAxis {
    WorkloadAxis::Synthetic {
        patterns: vec![Pattern::UniformRandom],
        loads: vec![load],
    }
}

/// The UR load sweep over all designs that Figs. 5 and 6 both plot.
fn ur_sweep(name: &str) -> CampaignSpec {
    CampaignSpec::new(name).with_group(PointGroup {
        label: name.into(),
        config: paper_config(),
        designs: Design::ALL.to_vec(),
        workload: ur_loads(),
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: replicate_seeds(),
        tag: None,
    })
}

/// Fig. 5 — UR throughput sweep, all designs.
pub fn fig05() -> CampaignSpec {
    ur_sweep("fig05_throughput_ur")
}

/// Fig. 6 — UR energy sweep. Declares the same grid as [`fig05`]; the
/// engine shares the simulations between the two.
pub fn fig06() -> CampaignSpec {
    ur_sweep("fig06_energy_ur")
}

/// Figs. 7/8 — all nine synthetic patterns at offered load 0.5.
pub fn fig07_08() -> CampaignSpec {
    CampaignSpec::new("fig07_08_synthetic").with_group(PointGroup {
        label: "fig07_08_synthetic".into(),
        config: paper_config(),
        designs: Design::ALL.to_vec(),
        workload: WorkloadAxis::Synthetic {
            patterns: Pattern::ALL.to_vec(),
            loads: vec![0.5],
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: replicate_seeds(),
        tag: None,
    })
}

/// Figs. 9/10 — closed-loop SPLASH-2 workloads, paper design set. Quick
/// mode trims the application list instead of the (already capped) windows.
pub fn fig09_10() -> CampaignSpec {
    let apps: Vec<SplashApp> = if quick_mode() {
        vec![SplashApp::Fft, SplashApp::Ocean, SplashApp::Water]
    } else {
        SplashApp::ALL.to_vec()
    };
    CampaignSpec::new("fig09_10_splash").with_group(PointGroup {
        label: "fig09_10_splash".into(),
        config: SimConfig::default(),
        designs: Design::PAPER_SET.to_vec(),
        workload: WorkloadAxis::Splash {
            apps,
            max_cycles: splash_cap(),
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: replicate_seeds(),
        tag: None,
    })
}

/// Figs. 11/12 — DXbar under crossbar faults, one group per fault
/// percentage so the renderer can address each curve by label.
pub fn fig11_12() -> CampaignSpec {
    let mut spec = CampaignSpec::new("fig11_12_faults");
    for percent in FAULT_PERCENTS {
        spec = spec.with_group(PointGroup {
            label: format!("fig11_12_f{percent}"),
            config: paper_config(),
            designs: vec![Design::DXbarDor, Design::DXbarWf],
            workload: ur_loads(),
            fault_fractions: vec![percent as f64 / 100.0],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: Some(format!("UR faults={percent}%")),
        });
    }
    spec
}

/// The four ablation sweeps of DESIGN.md, one group per knob setting.
pub fn ablations() -> CampaignSpec {
    let mut spec = CampaignSpec::new("ablations");
    // 1. Fairness threshold at a post-saturation load.
    for t in [1u32, 2, 4, 8, 16, 64] {
        spec = spec.with_group(PointGroup {
            label: format!("ablation1_thresh={t}"),
            config: SimConfig {
                fairness_threshold: t,
                ..paper_config()
            },
            designs: vec![Design::DXbarDor],
            workload: ur_at(0.45),
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: Some(format!("UR thresh={t}")),
        });
    }
    // 2. Secondary buffer depth.
    for d in [1usize, 2, 4, 8, 16] {
        spec = spec.with_group(PointGroup {
            label: format!("ablation2_depth={d}"),
            config: SimConfig {
                buffer_depth: d,
                ..paper_config()
            },
            designs: vec![Design::DXbarDor],
            workload: ur_at(0.6),
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: Some(format!("UR depth={d}")),
        });
    }
    // 3. BIST detection delay under 100 % faults, WF routing.
    for delay in [0u64, 2, 5, 10, 20, 50] {
        spec = spec.with_group(PointGroup {
            label: format!("ablation3_delay={delay}"),
            config: SimConfig {
                fault_detection_delay: delay,
                ..paper_config()
            },
            designs: vec![Design::DXbarWf],
            workload: ur_at(0.35),
            fault_fractions: vec![1.0],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: Some(format!("UR 100% faults delay={delay}")),
        });
    }
    // 4. Mesh-size scaling.
    for s in [4u16, 8, 12] {
        spec = spec.with_group(PointGroup {
            label: format!("ablation4_mesh={s}"),
            config: SimConfig {
                width: s,
                height: s,
                ..paper_config()
            },
            designs: vec![Design::FlitBless, Design::Buffered8, Design::DXbarDor],
            workload: ur_at(0.6),
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: Some(format!("UR {s}x{s}")),
        });
    }
    spec
}

/// The transient soft-error rates of the resilience study (expected
/// corruption/drop events per link-cycle). 0 is the healthy baseline.
pub const TRANSIENT_RATES: [f64; 5] = [0.0, 2e-4, 5e-4, 1e-3, 2e-3];

/// The permanent link-fault counts of the resilience study (failed
/// physical channels, placed so the mesh stays connected).
pub const LINK_FAULT_COUNTS: [usize; 4] = [0, 1, 2, 4];

/// The paper configuration with the drain window stretched past the worst
/// ARQ give-up chain (~3k cycles at the default retransmit config:
/// 128·(1+2+8+8) across 4 retries), so every in-flight recovery resolves
/// and the end-of-run loss accounting is exact.
fn resilience_config() -> SimConfig {
    SimConfig {
        drain_cycles: 6_000,
        ..paper_config()
    }
}

/// The resilience degradation study (`fig_resilience`): delivered
/// throughput, sanctioned packet loss and recovery latency as fault
/// intensity grows, for one representative design per family. Two sweeps:
/// transient soft errors at a fixed moderate load, and permanent link
/// faults at the same load.
pub fn resilience() -> CampaignSpec {
    let designs = vec![
        Design::DXbarDor,
        Design::DXbarWf,
        Design::Buffered8,
        Design::FlitBless,
        Design::Scarab,
    ];
    CampaignSpec::new("resilience")
        .with_group(PointGroup {
            label: "resilience_transients".into(),
            config: resilience_config(),
            designs: designs.clone(),
            workload: ur_at(0.3),
            fault_fractions: vec![],
            transient_rates: TRANSIENT_RATES.to_vec(),
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: None,
        })
        .with_group(PointGroup {
            label: "resilience_links".into(),
            config: resilience_config(),
            designs,
            workload: ur_at(0.3),
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: LINK_FAULT_COUNTS.to_vec(),
            seeds: replicate_seeds(),
            tag: None,
        })
}

/// A small resilience campaign for the CI `resilience-smoke` job: intended
/// to run under `--verify` / `DXBAR_VERIFY=1`, it pushes transient faults
/// and a dead link through a deflecting and an adaptive buffered-crossbar
/// design and checks the full recovery path against the oracle suite.
pub fn resilience_smoke() -> CampaignSpec {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 200,
        measure_cycles: 800,
        drain_cycles: 6_000,
        ..SimConfig::default()
    };
    CampaignSpec::new("resilience_smoke").with_group(PointGroup {
        label: "resilience_smoke".into(),
        config: cfg,
        designs: vec![Design::DXbarWf, Design::FlitBless],
        workload: ur_at(0.1),
        fault_fractions: vec![],
        transient_rates: vec![1e-3],
        link_faults: vec![1],
        seeds: vec![],
        tag: None,
    })
}

/// A deliberately tiny campaign for CI smoke tests and the EXPERIMENTS.md
/// walkthrough: a 4x4 mesh, short windows, two designs, three groups
/// (two load points, plus one faulty point). Seeds are left empty so
/// `campaign_run --seeds N` fully controls replication.
pub fn smoke() -> CampaignSpec {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 200,
        measure_cycles: 800,
        drain_cycles: 400,
        ..SimConfig::default()
    };
    CampaignSpec::new("smoke")
        .with_group(PointGroup {
            label: "smoke_ur".into(),
            config: cfg.clone(),
            designs: vec![Design::DXbarDor, Design::FlitBless],
            workload: WorkloadAxis::Synthetic {
                patterns: vec![Pattern::UniformRandom],
                loads: vec![0.2, 0.4],
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![],
            tag: None,
        })
        .with_group(PointGroup {
            label: "smoke_faults".into(),
            config: cfg,
            designs: vec![Design::DXbarDor],
            workload: ur_at(0.3),
            fault_fractions: vec![0.5],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![],
            tag: Some("UR faults=50%".into()),
        })
}

/// A small campaign for the CI `verify-smoke` job: intended to run under
/// `--verify` / `DXBAR_VERIFY=1`, it exercises every oracle-relevant design
/// family (dual-crossbar, unified, buffered, deflecting, dropping) at a
/// contended load, plus the DXbar designs through runtime fault
/// transitions. Bigger than `smoke`, far smaller than any figure.
pub fn verify_smoke() -> CampaignSpec {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 300,
        measure_cycles: 1_200,
        drain_cycles: 500,
        ..SimConfig::default()
    };
    CampaignSpec::new("verify_smoke")
        .with_group(PointGroup {
            label: "verify_designs".into(),
            config: cfg.clone(),
            designs: vec![
                Design::DXbarDor,
                Design::DXbarWf,
                Design::UnifiedDor,
                Design::UnifiedWf,
                Design::Buffered8,
                Design::FlitBless,
                Design::Scarab,
                Design::Afc,
                Design::Damq,
                Design::MinBd,
            ],
            workload: WorkloadAxis::Synthetic {
                patterns: vec![Pattern::UniformRandom],
                loads: vec![0.1, 0.5],
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![],
            tag: None,
        })
        .with_group(PointGroup {
            label: "verify_faults".into(),
            config: cfg,
            designs: vec![Design::DXbarDor, Design::DXbarWf],
            workload: ur_at(0.3),
            fault_fractions: vec![0.5],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![],
            tag: Some("UR faults=50%".into()),
        })
}

/// The router-zoo cross-architecture study (`fig_zoo`): latency,
/// throughput and deflection rate vs. offered load for every router
/// family in the repo — the paper's bufferless (Flit-BLESS, SCARAB),
/// buffered (Buffered-8) and crossbar (DXbar, unified) designs next to
/// the zoo's hybrid AFC, shared-buffer DAMQ and minimally-buffered MinBD.
pub fn zoo() -> CampaignSpec {
    CampaignSpec::new("zoo").with_group(PointGroup {
        label: "zoo_ur".into(),
        config: paper_config(),
        designs: vec![
            Design::FlitBless,
            Design::Scarab,
            Design::Buffered8,
            Design::DXbarDor,
            Design::UnifiedDor,
            Design::Afc,
            Design::Damq,
            Design::MinBd,
        ],
        workload: ur_loads(),
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: replicate_seeds(),
        tag: None,
    })
}

/// A small zoo campaign for the CI `zoo-smoke` job: the two new routers
/// on a 4x4 mesh at a calm and a contended load, intended to run under
/// `--verify` so the DAMQ/MinBD profiles face the oracle suite end to
/// end. Seeds are left empty so `campaign_run --seeds N` controls
/// replication.
pub fn zoo_smoke() -> CampaignSpec {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 300,
        measure_cycles: 1_200,
        drain_cycles: 500,
        ..SimConfig::default()
    };
    CampaignSpec::new("zoo_smoke").with_group(PointGroup {
        label: "zoo_smoke".into(),
        config: cfg,
        designs: vec![Design::Damq, Design::MinBd],
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads: vec![0.1, 0.4],
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![],
        tag: None,
    })
}

/// The background-burstiness sweep of `fig_scenario`: MMPP burst/base
/// rate ratios of the interfering background application (1 = steady
/// Bernoulli-equivalent modulation, larger = burstier at the same mean;
/// the MMPP source clamps at 4, where the low state falls silent).
pub const SCENARIO_BURSTINESS: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 4.0];

/// The offered load of the scenario study (per app, before `load_scale`).
pub const SCENARIO_LOAD: f64 = 0.3;

/// Parameterized `interfere2` scenario names for the burstiness sweep —
/// each is a first-class cacheable scenario identity.
pub fn interfere_names() -> Vec<String> {
    SCENARIO_BURSTINESS
        .iter()
        .map(|b| format!("interfere2:{b:.3}"))
        .collect()
}

/// The designs of the scenario study: one pure-bufferless and one
/// minimally-buffered router, both credit-free so the `mixed_islands`
/// fabric accepts either as the base design.
fn scenario_designs() -> Vec<Design> {
    vec![Design::FlitBless, Design::MinBd]
}

/// The scenario study (`fig_scenario`): two groups on the paper's 8x8
/// fabric. `scenario_interference` sweeps the background app's MMPP
/// burstiness in the two-app interference split (per-app latency and the
/// global deflection rate are the figure's y-axes); `scenario_fabrics`
/// pins one point per remaining scenario family — bursty whole-mesh
/// MMPP/Pareto, the DAMQ-island mixed fabric, and the torus/cmesh
/// topologies.
pub fn scenario() -> CampaignSpec {
    CampaignSpec::new("scenario")
        .with_group(PointGroup {
            label: "scenario_interference".into(),
            config: paper_config(),
            designs: scenario_designs(),
            workload: WorkloadAxis::Scenario {
                scenarios: interfere_names(),
                loads: vec![SCENARIO_LOAD],
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: None,
        })
        .with_group(PointGroup {
            label: "scenario_fabrics".into(),
            config: paper_config(),
            designs: scenario_designs(),
            workload: WorkloadAxis::Scenario {
                scenarios: vec![
                    "mmpp_ur".into(),
                    "pareto_ur".into(),
                    "mixed_islands".into(),
                    "torus_ur".into(),
                    "cmesh_ur".into(),
                ],
                loads: vec![SCENARIO_LOAD],
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: replicate_seeds(),
            tag: None,
        })
}

/// A small scenario campaign for the CI `scenario-smoke` job: the full
/// scenario family (bursty MMPP/Pareto injection, the two-app
/// interference split, the mixed BLESS/DAMQ fabric, torus and cmesh) on
/// the paper's 8x8 grid with short windows, across two credit-free
/// designs. Intended to run under `--verify` so every scenario faces the
/// wrap-aware oracle suite end to end.
pub fn scenario_smoke() -> CampaignSpec {
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_200,
        drain_cycles: 500,
        ..SimConfig::default()
    };
    CampaignSpec::new("scenario_smoke").with_group(PointGroup {
        label: "scenario_smoke".into(),
        config: cfg,
        designs: scenario_designs(),
        workload: WorkloadAxis::Scenario {
            scenarios: vec![
                "mmpp_ur".into(),
                "pareto_ur".into(),
                "interfere2".into(),
                "mixed_islands".into(),
                "torus_ur".into(),
                "cmesh_ur".into(),
            ],
            loads: vec![0.15],
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![],
        tag: None,
    })
}

/// One row of the evaluation: a table, a figure or a bare campaign preset.
pub struct Entry {
    /// The canonical name, the one listings print.
    pub name: &'static str,
    /// The other accepted spelling — for a figure, the name its binary had,
    /// which is still the stem of the `.txt`/`.json` it writes. Equal to
    /// `name` where there is no second spelling.
    pub alias: &'static str,
    /// Builder of the campaign behind the row; `None` for `tables`, which
    /// simulates nothing.
    pub spec: Option<fn() -> CampaignSpec>,
    /// What draws the row; `None` for the presets that are only campaigns
    /// (the smoke grids and the union).
    pub render: Option<Render>,
    /// Whether the row is part of the paper's evaluation section: merged
    /// into [`repro_all`] and rendered by the `repro_all` binary.
    pub paper: bool,
}

const fn row(
    name: &'static str,
    alias: &'static str,
    spec: Option<fn() -> CampaignSpec>,
    render: Option<Render>,
    paper: bool,
) -> Entry {
    Entry {
        name,
        alias,
        spec,
        render,
        paper,
    }
}

/// Every table, figure and preset, in listing order. [`preset`],
/// [`PRESETS`], [`FIGURES`], [`repro_all`] and the `fig` and `repro_all`
/// binaries all read this table and nothing else.
#[rustfmt::skip]
pub const REGISTRY: [Entry; 16] = [
    row("tables",           "tables",              None,                   Some(figures::tables),     true),
    row("fig05",            "fig05_throughput_ur", Some(fig05),            Some(figures::fig05),      true),
    row("fig06",            "fig06_energy_ur",     Some(fig06),            Some(figures::fig06),      true),
    row("fig07_08",         "fig07_08_synthetic",  Some(fig07_08),         Some(figures::fig07_08),   true),
    row("fig09_10",         "fig09_10_splash",     Some(fig09_10),         Some(figures::fig09_10),   true),
    row("fig11_12",         "fig11_12_faults",     Some(fig11_12),         Some(figures::fig11_12),   true),
    row("ablations",        "ablations",           Some(ablations),        Some(figures::ablations),  true),
    row("resilience",       "fig_resilience",      Some(resilience),       Some(figures::resilience), false),
    row("resilience_smoke", "resilience_smoke",    Some(resilience_smoke), None,                      false),
    row("smoke",            "smoke",               Some(smoke),            None,                      false),
    row("verify_smoke",     "verify_smoke",        Some(verify_smoke),     None,                      false),
    row("zoo",              "fig_zoo",             Some(zoo),              Some(figures::zoo),        false),
    row("zoo_smoke",        "zoo_smoke",           Some(zoo_smoke),        None,                      false),
    row("scenario",         "fig_scenario",        Some(scenario),         Some(figures::scenario),   false),
    row("scenario_smoke",   "scenario_smoke",      Some(scenario_smoke),   None,                      false),
    row("repro_all",        "all",                 Some(repro_all),        None,                      false),
];

/// The row `name` spells, by canonical name or alias.
pub fn lookup(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name || e.alias == name)
}

/// Whether a row is a campaign preset — and, with `rendered`, a figure too.
const fn listed(e: &Entry, rendered: bool) -> bool {
    e.spec.is_some() && (e.render.is_some() || !rendered)
}

const fn count(rendered: bool) -> usize {
    let (mut i, mut n) = (0, 0);
    while i < REGISTRY.len() {
        n += listed(&REGISTRY[i], rendered) as usize;
        i += 1;
    }
    n
}

const fn names<const N: usize>(rendered: bool) -> [&'static str; N] {
    let mut out = [""; N];
    let (mut i, mut n) = (0, 0);
    while i < REGISTRY.len() {
        if listed(&REGISTRY[i], rendered) {
            out[n] = REGISTRY[i].name;
            n += 1;
        }
        i += 1;
    }
    out
}

/// Preset names accepted by [`preset`] (canonical spellings).
pub const PRESETS: [&str; count(false)] = names(false);

/// The presets that are also figures — what the daemon serves under
/// `/figures`.
pub const FIGURES: [&str; count(true)] = names(true);

/// Resolve a preset name for `campaign_run` and the daemon.
pub fn preset(name: &str) -> Option<CampaignSpec> {
    lookup(name)?.spec.map(|build| build())
}

/// The unified evaluation grid: every paper figure and ablation in one
/// campaign. Overlapping groups (fig05/fig06) are deduplicated by the
/// engine.
pub fn repro_all() -> CampaignSpec {
    let paper = REGISTRY.iter().filter(|e| e.paper);
    CampaignSpec::merged(
        "repro_all",
        paper.filter_map(|e| e.spec).map(|build| build()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_resolves_and_validates() {
        for name in PRESETS {
            let spec = preset(name).expect("preset exists");
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!spec.points().is_empty(), "{name} expands to no points");
        }
        assert!(preset("no-such-figure").is_none());
    }

    #[test]
    fn fig05_and_fig06_share_their_grid() {
        // The union campaign simulates the shared UR sweep only once.
        let union = CampaignSpec::merged("u", [fig05(), fig06()]);
        let pts = union.points();
        let unique: std::collections::HashSet<String> = pts
            .iter()
            .map(|p| p.cache_key(noc_campaign::CODE_VERSION))
            .collect();
        assert_eq!(unique.len(), pts.len() / 2);
    }

    #[test]
    fn repro_all_covers_every_figure_group() {
        let spec = repro_all();
        let labels: Vec<&str> = spec.groups.iter().map(|g| g.label.as_str()).collect();
        for needle in [
            "fig05_throughput_ur",
            "fig06_energy_ur",
            "fig07_08_synthetic",
            "fig09_10_splash",
            "fig11_12_f100",
            "ablation1_thresh=4",
            "ablation4_mesh=12",
        ] {
            assert!(labels.contains(&needle), "missing group {needle}");
        }
    }

    #[test]
    fn resilience_presets_sweep_the_fault_axes() {
        let spec = resilience();
        spec.validate().unwrap();
        let pts = spec.points();
        let rates: std::collections::BTreeSet<u64> =
            pts.iter().map(|p| p.transient_rate.to_bits()).collect();
        assert_eq!(rates.len(), TRANSIENT_RATES.len());
        let links: std::collections::BTreeSet<usize> =
            pts.iter().map(|p| p.link_fault_count).collect();
        assert_eq!(links.len(), LINK_FAULT_COUNTS.len());
        assert!(pts.iter().any(|p| p.has_resilience()));

        let smoke = resilience_smoke();
        smoke.validate().unwrap();
        assert!(smoke.points().iter().all(|p| p.has_resilience()));
    }

    #[test]
    fn scenario_presets_cover_the_scenario_families() {
        let spec = scenario();
        spec.validate().unwrap();
        let pts = spec.points();
        // Burstiness sweep: one point per (design, burstiness).
        let interference = pts
            .iter()
            .filter(|p| p.group == "scenario_interference")
            .count();
        assert_eq!(
            interference,
            2 * SCENARIO_BURSTINESS.len() * replicate_seeds().len()
        );
        // Every scenario family appears in the smoke preset.
        let smoke = scenario_smoke();
        smoke.validate().unwrap();
        let names: std::collections::BTreeSet<String> =
            smoke.points().iter().map(|p| p.workload.short()).collect();
        for family in [
            "mmpp_ur",
            "pareto_ur",
            "interfere2",
            "mixed_islands",
            "torus_ur",
            "cmesh_ur",
        ] {
            assert!(names.contains(family), "smoke misses {family}");
        }
        // The smoke grid stays on the paper's 8x8 fabric.
        assert!(smoke.points().iter().all(|p| p.config.width == 8));
    }

    #[test]
    fn fault_groups_carry_their_fraction_and_tag() {
        let spec = fig11_12();
        assert_eq!(spec.groups.len(), FAULT_PERCENTS.len());
        for (g, percent) in spec.groups.iter().zip(FAULT_PERCENTS) {
            assert_eq!(g.fault_fractions, vec![percent as f64 / 100.0]);
            assert_eq!(g.tag.as_deref(), Some(&*format!("UR faults={percent}%")));
        }
    }
}
