//! One observed run: attach a recording trace sink and/or a [`Verifier`]
//! to a network, execute the run, detach them and hand their findings back.

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

/// [`noc_sim::run`] with the requested observers attached for its duration:
/// `trace` records into the given sink, `verify` attaches the full
/// runtime-oracle suite (default [`VerifyOptions`]). Both are listeners on
/// the network's one observer seam; each comes back `Some` exactly when it
/// was asked for, and the report comes back whether or not it is clean.
pub fn run_observed<R: RouterModel>(
    net: &mut Network<R>,
    model: &mut dyn TrafficModel,
    mode: RunMode,
    energy: &EnergyModel,
    trace: Option<RecordingSink>,
    verify: bool,
) -> (RunResult, Option<RecordingSink>, Option<VerifyReport>) {
    if verify {
        net.attach(Verifier::for_network(net, VerifyOptions::default()));
    }
    if let Some(sink) = trace {
        net.attach(sink);
    }
    let result = noc_sim::run(net, model, mode, energy);
    let trace = net.detach::<RecordingSink>();
    let report = net.detach::<Verifier>().map(|v| v.finalize(net));
    (result, trace, report)
}
