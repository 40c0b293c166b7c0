//! The run surface: one [`RunPlan`] value describes an experiment, one
//! [`run`] executes it. Every caller — CLIs, the campaign executor, the
//! scenario engine, examples, tests — builds a plan; nothing chooses among
//! function names.

use crate::designs::Design;
use crate::kind::RouterKind;
use noc_core::SimConfig;
use noc_faults::FaultPlan;
use noc_power::energy::EnergyModel;
use noc_resilience::{ReachReport, ResiliencePlan};
use noc_sim::noc_trace::RecordingSink;
use noc_sim::runner::RunMode;
use noc_sim::{Network, RunResult};
use noc_topology::Mesh;
use noc_traffic::generator::{SyntheticTraffic, TrafficModel};
use noc_traffic::patterns::Pattern;
use noc_traffic::splash::{SplashApp, SplashTraffic};
use noc_verify::{VerifyError, VerifyReport};

/// What drives the network.
pub enum Workload<'a> {
    /// Open-loop Bernoulli injection of `pattern` at `load` (fraction of
    /// network capacity, converted through the config's injection-rate
    /// model with its packet length and seed).
    Synthetic { pattern: Pattern, load: f64 },
    /// Closed-loop SPLASH-2 model run to completion (Figs. 9/10): no warmup
    /// or drain, the whole run measured. `max_cycles` caps runaway runs (a
    /// design that cannot finish reports `completed = false`).
    Splash { app: SplashApp, max_cycles: u64 },
    /// A caller-owned traffic model and the termination policy it needs.
    /// Borrowed, so the caller can read the model's own statistics back;
    /// `'static` (models own their state) keeps the plan covariant, so code
    /// handed a plan can add its own borrows to it.
    Model {
        model: &'a mut (dyn TrafficModel + 'static),
        mode: RunMode,
    },
}

/// One experiment. Fields are public: set the ones that differ from what
/// the constructors give (fault-free, no observers, homogeneous fabric).
pub struct RunPlan<'a> {
    pub design: Design,
    pub cfg: &'a SimConfig,
    pub workload: Workload<'a>,
    /// Per-node designs (indexed by `NodeId`) for a heterogeneous fabric;
    /// `None` puts `design` everywhere.
    pub placement: Option<&'a [Design]>,
    /// The faults the run injects, whatever its workload: permanent
    /// crossbar faults (Figs. 11/12; honoured by the DXbar variants and
    /// ignored by the others, as in the paper's fault study), permanent
    /// link faults and transient soft errors. The CRC + NI-retransmission
    /// layer is armed exactly when the plan has link or transient faults
    /// ([`ResiliencePlan::needs_recovery`]). `None` is fault-free.
    pub faults: Option<&'a ResiliencePlan>,
    /// Record flit lifetimes, ring-buffered events and per-cycle series.
    pub trace: Option<RecordingSink>,
    /// Attach the runtime-oracle suite (flit conservation, crossbar
    /// exclusivity, route legality, FIFO bounds, fairness guarantee,
    /// deadlock/livelock watchdog, and the resilience oracles when the
    /// recovery layer is armed).
    pub verify: bool,
    /// Tile workers the engine steps on; `None` leaves what
    /// `Network::new` read from `DXBAR_TILE_THREADS`.
    pub tile_threads: Option<usize>,
}

impl<'a> RunPlan<'a> {
    fn new(design: Design, cfg: &'a SimConfig, workload: Workload<'a>) -> RunPlan<'a> {
        RunPlan {
            design,
            cfg,
            workload,
            placement: None,
            faults: None,
            trace: None,
            verify: false,
            tile_threads: None,
        }
    }

    pub fn synthetic(design: Design, cfg: &'a SimConfig, pattern: Pattern, load: f64) -> Self {
        Self::new(design, cfg, Workload::Synthetic { pattern, load })
    }

    pub fn splash(design: Design, cfg: &'a SimConfig, app: SplashApp, max_cycles: u64) -> Self {
        Self::new(design, cfg, Workload::Splash { app, max_cycles })
    }

    pub fn model(
        design: Design,
        cfg: &'a SimConfig,
        model: &'a mut (dyn TrafficModel + 'static),
        mode: RunMode,
    ) -> Self {
        Self::new(design, cfg, Workload::Model { model, mode })
    }

    pub fn faults(mut self, faults: &'a ResiliencePlan) -> Self {
        self.faults = Some(faults);
        self
    }

    pub fn traced(mut self, sink: RecordingSink) -> Self {
        self.trace = Some(sink);
        self
    }

    pub fn verified(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    pub fn tile_threads(mut self, workers: usize) -> Self {
        self.tile_threads = Some(workers);
        self
    }

    /// The fault plan, if it needs the recovery layer armed.
    fn recovery(&self) -> Option<&'a ResiliencePlan> {
        self.faults.filter(|f| f.needs_recovery())
    }

    /// The fabric [`run`] steps: `placement` (or `design` everywhere) built
    /// with the plan's crossbar faults, the worker count set and, when the
    /// faults need it, the resilience layer armed. A closed-loop SPLASH run
    /// has no warmup or drain and measures up to its cycle cap.
    pub fn build_network(&self) -> Network<RouterKind> {
        let closed_loop;
        let cfg = match self.workload {
            Workload::Splash { max_cycles, .. } => {
                closed_loop = SimConfig {
                    warmup_cycles: 0,
                    measure_cycles: max_cycles.max(1),
                    drain_cycles: 0,
                    ..self.cfg.clone()
                };
                &closed_loop
            }
            _ => self.cfg,
        };
        let fault_free = FaultPlan::default();
        let crossbar = self.faults.map_or(&fault_free, |f| &f.crossbar);
        let mut net = Network::new(cfg, &|n| {
            self.placement
                .map_or(self.design, |p| p[n.index()])
                .build_router(cfg, crossbar, n)
        });
        if let Some(workers) = self.tile_threads {
            net.set_tile_threads(workers);
        }
        if let Some(faults) = self.recovery() {
            net.set_resilience(faults.clone());
        }
        net
    }
}

/// What a run produced. The observer fields are `Some` exactly when the
/// plan asked for them.
pub struct RunOutput {
    pub result: RunResult,
    pub trace: Option<RecordingSink>,
    /// Comes back clean or not, so a traced run keeps its recording when
    /// verification fails; see [`RunOutput::clean`].
    pub verify: Option<VerifyReport>,
    /// Reachability of the degraded topology when the recovery layer was
    /// armed — traffic between partitioned pairs burns the full retry
    /// budget per packet and lands in `lost_flits`.
    pub reach: Option<ReachReport>,
}

impl RunOutput {
    /// `Err` with the structured violations if the oracles saw any.
    pub fn clean(mut self) -> Result<RunOutput, Box<VerifyError>> {
        match self.verify.take_if(|report| !report.is_clean()) {
            None => Ok(self),
            Some(report) => Err(Box::new(VerifyError {
                result: self.result,
                report,
            })),
        }
    }
}

/// Execute a plan: build the fabric ([`RunPlan::build_network`]) and the
/// traffic model, attach the observers, run ([`noc_sim::run`]), detach them.
pub fn run(plan: RunPlan<'_>) -> RunOutput {
    let cfg = plan.cfg;
    let mesh = Mesh::for_config(cfg);
    let mut net = plan.build_network();
    let reach = plan.recovery().map(|f| f.reachability(&mesh));
    let (mut synthetic, mut splash);
    let (model, mode, offered_load): (&mut dyn TrafficModel, _, _) = match plan.workload {
        Workload::Synthetic { pattern, load } => {
            let rate = cfg.injection_rate(load);
            synthetic = SyntheticTraffic::new(pattern, mesh, rate, cfg.packet_len, cfg.seed);
            (&mut synthetic, RunMode::OpenLoop, Some(load))
        }
        Workload::Splash { app, max_cycles } => {
            splash = SplashTraffic::new(app, mesh, cfg.seed);
            (&mut splash, RunMode::ClosedLoop { max_cycles }, None)
        }
        Workload::Model { model, mode } => (model, mode, None),
    };
    let (mut result, trace, verify) = noc_verify::run_observed(
        &mut net,
        model,
        mode,
        &EnergyModel::default(),
        plan.trace,
        plan.verify,
    );
    result.offered_load = offered_load;
    RunOutput {
        result,
        trace,
        verify,
        reach,
    }
}

// The signatures `benchmark/` calls by name; nothing else may. Each is one
// expression over `run`, deleted with the next benchmark-tagged PR.

pub fn run_synthetic(
    design: Design,
    cfg: &SimConfig,
    pattern: Pattern,
    offered_load: f64,
) -> RunResult {
    run(RunPlan::synthetic(design, cfg, pattern, offered_load)).result
}

pub fn run_synthetic_traced(
    design: Design,
    cfg: &SimConfig,
    pattern: Pattern,
    offered_load: f64,
    sink: RecordingSink,
) -> (RunResult, RecordingSink) {
    let out = run(RunPlan::synthetic(design, cfg, pattern, offered_load).traced(sink));
    (out.result, out.trace.expect("traced plan"))
}

pub fn run_synthetic_verified(
    design: Design,
    cfg: &SimConfig,
    pattern: Pattern,
    offered_load: f64,
    faults: &FaultPlan,
) -> Result<(RunResult, VerifyReport), Box<VerifyError>> {
    let faults = ResiliencePlan::none().with_crossbar(faults.clone());
    run(RunPlan::synthetic(design, cfg, pattern, offered_load)
        .faults(&faults)
        .verified(true))
    .clean()
    .map(|out| (out.result, out.verify.expect("verified plan")))
}

pub fn run_synthetic_resilient(
    design: Design,
    cfg: &SimConfig,
    pattern: Pattern,
    offered_load: f64,
    plan: &ResiliencePlan,
) -> (RunResult, ReachReport) {
    let out = run(RunPlan::synthetic(design, cfg, pattern, offered_load).faults(plan));
    (out.result, out.reach.expect("resilience plan"))
}
