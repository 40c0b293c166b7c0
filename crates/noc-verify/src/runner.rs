//! Verified run orchestration: attach a [`Verifier`] to a network, execute a
//! run, then detach it and turn any recorded violations into an `Err`.
//!
//! Mirrors `noc_sim::run_traced`'s attach/run/detach shape so call sites can
//! switch between plain and verified runs without restructuring.

use crate::oracle::{Verifier, VerifyOptions, VerifyReport};
use noc_power::energy::EnergyModel;
use noc_sim::noc_trace::RecordingSink;
use noc_sim::report::RunResult;
use noc_sim::runner::RunMode;
use noc_sim::{Network, RouterModel};
use noc_traffic::generator::TrafficModel;

/// A verified run that observed at least one invariant violation. Carries
/// both the simulation result (the run itself completed) and the full
/// [`VerifyReport`] with structured violation records.
#[derive(Debug)]
pub struct VerifyError {
    /// The run's ordinary statistics — valid even though verification failed.
    pub result: RunResult,
    /// The report, including up to `max_recorded` structured violations.
    pub report: VerifyReport,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.report.summary())?;
        for v in &self.report.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Execute a run with the full runtime-oracle suite attached (default
/// [`VerifyOptions`]). Returns the run result together with the (clean)
/// verification report, or [`VerifyError`] if any invariant was violated.
pub fn run_verified<R: RouterModel>(
    net: &mut Network<R>,
    model: &mut dyn TrafficModel,
    mode: RunMode,
    energy: &EnergyModel,
) -> Result<(RunResult, VerifyReport), Box<VerifyError>> {
    run_verified_with(net, model, mode, energy, VerifyOptions::default())
}

/// Execute a run with both the oracle suite and a recording trace sink
/// attached (the two are independent network attachments). Unlike
/// [`run_verified`], the report comes back unconditionally — callers that
/// also want the trace on a violating run check [`VerifyReport::is_clean`]
/// themselves.
pub fn run_traced_verified<R: RouterModel>(
    net: &mut Network<R>,
    model: &mut dyn TrafficModel,
    mode: RunMode,
    energy: &EnergyModel,
    sink: RecordingSink,
) -> (RunResult, RecordingSink, VerifyReport) {
    let verifier = Verifier::for_network(net, VerifyOptions::default());
    net.set_observer(Box::new(verifier));
    let (result, sink) = noc_sim::runner::run_traced(net, model, mode, energy, sink);
    let verifier = net
        .take_observer()
        .into_any()
        .downcast::<Verifier>()
        .expect("run_traced_verified attached a Verifier");
    let report = verifier.finalize(net);
    (result, sink, report)
}

/// [`run_verified`] with explicit [`VerifyOptions`] (watchdog horizon,
/// violation recording cap).
pub fn run_verified_with<R: RouterModel>(
    net: &mut Network<R>,
    model: &mut dyn TrafficModel,
    mode: RunMode,
    energy: &EnergyModel,
    opts: VerifyOptions,
) -> Result<(RunResult, VerifyReport), Box<VerifyError>> {
    let verifier = Verifier::for_network(net, opts);
    net.set_observer(Box::new(verifier));
    let result = noc_sim::run(net, model, mode, energy);
    let verifier = net
        .take_observer()
        .into_any()
        .downcast::<Verifier>()
        .expect("run_verified attached a Verifier");
    let report = verifier.finalize(net);
    if report.is_clean() {
        Ok((result, report))
    } else {
        Err(Box::new(VerifyError { result, report }))
    }
}
