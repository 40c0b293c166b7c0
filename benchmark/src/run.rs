//! One benchmark run: the recording context a workload fills in, the
//! estimator that turns its samples into metrics, and the report.
//!
//! A run is set-up (repeated, median reported), then timed passes until the
//! time budget is spent, then the correctness checks that need no timing.
//! Times of CPU-bound workloads are kept in calibrated seconds (`steady.rs`).
//! With `--trace 1` half the budget goes to passes that alternate spans on
//! and off (their ratio is `bench.trace_overhead_x`) and half to the layer
//! probes of the workload.

use crate::decl::{self, Metric};
use crate::span::{self, Tracer};
use crate::steady::{calibrated, Steady, Timing};
use crate::{host, stats};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's own directory; scratch state and result files live in
/// its `out/`.
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One tiny pass on shrunken inputs: exercises every code path of the
    /// harness in seconds. Pinned fingerprints do not apply.
    pub smoke: bool,
}

/// One timed pass: how much work it did and how long it took.
#[derive(Debug, Clone, Copy)]
struct Pass {
    work: f64,
    wall_s: f64,
    traced: bool,
}

/// One set-up: seconds as measured, and in calibrated seconds.
#[derive(Debug, Clone, Copy)]
struct Setup {
    wall_s: f64,
    calibrated_s: f64,
}

/// The seed whose kernel fingerprints are pinned under `expected/`.
pub const PINNED_SEED: u64 = 1;

pub fn expected_path() -> PathBuf {
    Path::new(BENCH_DIR).join("expected/fingerprints.json")
}

/// What a workload records into while it runs.
pub struct Cx {
    pub args: RunArgs,
    pub tracer: Arc<Tracer>,
    scratch: PathBuf,
    /// Pinned rows of this workload, when this run is to be held to them.
    expected: Option<Value>,
    /// Kernel rows this run produced: (row, stats fingerprint, flits).
    pub pins: Vec<(String, String, u64)>,
    steady: Steady,
    /// Host-speed readings: one before every pass and one after the last.
    readings: Vec<f64>,
    setups: Vec<Setup>,
    /// Resident memory before and after the first set-up, KiB.
    setup_rss_kb: (u64, u64),
    passes: Vec<Pass>,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    layers: BTreeMap<String, f64>,
    /// Layer metrics that have no value this run, with the reason.
    nulls: BTreeMap<String, String>,
    timed_from: Option<(Instant, f64)>,
    timed_wall_s: f64,
    timed_cpu_s: f64,
    peak_rss_kb: u64,
}

impl Cx {
    pub fn new(args: RunArgs, timing: Timing) -> Cx {
        let scratch = Path::new(BENCH_DIR).join("out").join(format!(
            "scratch-{}-{}",
            args.workload,
            std::process::id()
        ));
        Cx {
            tracer: Arc::new(Tracer::new(false)),
            args,
            scratch,
            expected: None,
            pins: Vec::new(),
            steady: Steady::new(timing),
            readings: Vec::new(),
            setups: Vec::new(),
            setup_rss_kb: (0, 0),
            passes: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            failed: 0,
            layers: BTreeMap::new(),
            nulls: BTreeMap::new(),
            timed_from: None,
            timed_wall_s: 0.0,
            timed_cpu_s: 0.0,
            peak_rss_kb: 0,
        }
    }

    /// A fresh, empty directory under this run's scratch root. Everything
    /// the run writes (caches, daemon state) goes below it.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        // A leftover from an earlier pass is deleted, not reused.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create scratch dir {}: {e}", dir.display()));
        dir
    }

    /// Run the workload's set-up repeatedly (once under `--smoke`), time
    /// each, and keep the last result. The reported `setup_s` is their
    /// median: one sample swings with the host, and with the two host
    /// readings around it. Three times at least; a cheap set-up goes on,
    /// up to nine times, while all of them together have taken under 1.5 s.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Cx) -> T) -> T {
        let started = Instant::now();
        let mut last = None;
        loop {
            let done = self.setups.len();
            let more = if self.args.smoke {
                done < 1
            } else {
                done < 3 || done < 9 && started.elapsed() < Duration::from_millis(1500)
            };
            if !more {
                break;
            }
            drop(last.take());
            let rss_before = host::rss_kb();
            let before = self.steady.reading();
            let t0 = Instant::now();
            let built = build(self);
            let wall_s = t0.elapsed().as_secs_f64();
            let after = self.steady.reading();
            self.setups.push(Setup {
                wall_s,
                calibrated_s: calibrated(wall_s, before, after),
            });
            if done == 0 {
                self.setup_rss_kb = (rss_before, host::rss_kb());
            }
            last = Some(built);
        }
        last.expect("at least one set-up")
    }

    /// Resident memory before and after the first set-up, KiB.
    pub fn setup_rss_kb(&self) -> (u64, u64) {
        self.setup_rss_kb
    }

    /// Hold this run's kernel rows to `expected/fingerprints.json`. The pins
    /// were taken on full-size inputs at one seed; any other run is held to
    /// the any-seed checks only.
    pub fn hold_to_pins(&mut self) {
        if self.args.seed != PINNED_SEED || self.args.smoke {
            return;
        }
        let path = expected_path();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let all = serde_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        self.expected = Some(all.field(&self.args.workload).clone());
    }

    /// Seconds of timed passes this run may spend.
    fn pass_budget(&self) -> Duration {
        let share = if self.args.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.args.seconds * share)
    }

    /// Seconds each of `probes` layer probes may spend in a traced run.
    pub fn probe_budget(&self, probes: usize) -> Duration {
        Duration::from_secs_f64(self.args.seconds * 0.5 / probes.max(1) as f64)
    }

    /// CPU seconds of the workload so far: the process's, less what the
    /// harness itself burnt in spinners and calibration loops.
    fn workload_cpu_s(&self) -> f64 {
        host::cpu_seconds() - self.steady.spinner_cpu_s() - self.steady.calibration_s
    }

    /// Start of the timed part: CPU time and wall time count from here.
    pub fn begin_timed(&mut self) {
        self.timed_from = Some((Instant::now(), self.workload_cpu_s()));
    }

    /// Whether another pass fits. Always grants three passes (one under
    /// `--smoke`) so a slow host still yields a median. Switches the spans
    /// on for every other pass of a traced run.
    pub fn next_pass(&mut self) -> bool {
        let (t0, _) = self.timed_from.expect("begin_timed before passes");
        let done = self.passes.len();
        let more = if self.args.smoke {
            done < 1
        } else {
            done < 3 || t0.elapsed() < self.pass_budget()
        };
        if more {
            self.readings.push(self.steady.reading());
            if self.args.trace {
                self.tracer.set_on(done.is_multiple_of(2));
            }
        }
        more
    }

    /// Record one finished pass: `work` units in `wall_s` seconds.
    pub fn pass(&mut self, work: f64, wall_s: f64) {
        self.passes.push(Pass {
            work,
            wall_s,
            traced: self.tracer.is_on(),
        });
    }

    /// End of the timed part: read CPU time and the memory high-water mark
    /// before the untimed checks can move them.
    pub fn end_timed(&mut self) {
        let (t0, cpu0) = self.timed_from.expect("begin_timed before end_timed");
        self.readings.push(self.steady.reading());
        self.timed_wall_s = t0.elapsed().as_secs_f64();
        self.timed_cpu_s = self.workload_cpu_s() - cpu0;
        self.peak_rss_kb = host::peak_rss_kb();
        if self.args.trace {
            self.tracer.set_on(true);
        }
    }

    pub fn timed_cpu_s(&self) -> f64 {
        self.timed_cpu_s
    }

    pub fn passes_done(&self) -> usize {
        self.passes.len()
    }

    /// Count `n` operations that cannot fail short of a panic.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one checked operation; a miss is one failed operation and
    /// makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count one failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("CHECK FAILED: {what}");
        self.failures.push(what);
    }

    /// Record one kernel row (FNV-1a of the serialized `NetStats`, flits
    /// delivered) and, at the pinned seed, hold it to `expected/`.
    pub fn pin(&mut self, row: &str, fingerprint: u64, flits: u64) {
        let stats = format!("{fingerprint:016x}");
        if let Some(expected) = &self.expected {
            let want = expected.field(row);
            let ok = want.field("stats").as_str() == Some(stats.as_str())
                && want.field("flits").as_u64() == Some(flits);
            let want = want.to_json();
            self.check(ok, || {
                format!("{row}: stats {stats} flits {flits} differ from the pinned {want}")
            });
        }
        self.pins.push((row.to_string(), stats, flits));
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// A per-layer metric with no value this run (say, too few samples for
    /// a percentile): printed as 0, recorded as `null` with the reason.
    pub fn layer_null(&mut self, name: impl Into<String>, reason: impl Into<String>) {
        self.nulls.insert(name.into(), reason.into());
    }

    /// Calibrated seconds of pass `i`: its wall time scaled by the host
    /// readings taken right before and right after it.
    fn pass_s(&self, i: usize) -> f64 {
        calibrated(
            self.passes[i].wall_s,
            self.readings[i],
            self.readings[i + 1],
        )
        .max(1e-12)
    }

    fn rates(&self, traced: Option<bool>) -> Vec<f64> {
        (0..self.passes.len())
            .filter(|&i| traced.is_none_or(|t| self.passes[i].traced == t))
            .map(|i| self.passes[i].work / self.pass_s(i))
            .collect()
    }

    fn end_to_end_values(&self) -> Vec<(Metric, f64, Vec<f64>)> {
        decl::end_to_end()
            .into_iter()
            .map(|m| {
                let (value, samples) = match m.name.as_str() {
                    "setup_s" => {
                        let s: Vec<f64> = self.setups.iter().map(|s| s.calibrated_s).collect();
                        (stats::median(&s), s)
                    }
                    "work_per_s" => {
                        let r = self.rates(None);
                        (stats::median(&r), r)
                    }
                    "peak_rss_kb" => (self.peak_rss_kb as f64, vec![]),
                    other => unreachable!("end-to-end metric {other} has no estimator"),
                };
                (m, value, samples)
            })
            .collect()
    }

    /// Close the run: derive the harness's own layer metrics, print the
    /// human-readable report to stderr, write the result file and the trace,
    /// remove the scratch state, and return the contract's result line.
    pub fn finish(mut self) -> (Value, bool) {
        if self.args.trace {
            let on = stats::median(&self.rates(Some(true)));
            let off = stats::median(&self.rates(Some(false)));
            if on > 0.0 && off > 0.0 {
                // Rates are work per second, so slower traced passes give a
                // ratio above 1.
                self.layers
                    .insert("bench.trace_overhead_x".into(), off / on);
            } else {
                self.nulls.insert(
                    "bench.trace_overhead_x".into(),
                    "needs one pass with spans on and one with spans off".into(),
                );
            }
            self.layers
                .insert("bench.ops_attempted".into(), self.attempted as f64);
            let total_work: f64 = self.passes.iter().map(|p| p.work).sum();
            let cpu_s = self.timed_cpu_s * stats::median(&self.readings);
            self.layers.insert(
                "bench.cpu_us_per_work".into(),
                cpu_s * 1e6 / total_work.max(1e-12),
            );
        }
        let correct = self.failed == 0;
        let spans = self.tracer.finished();

        let mut metrics = Vec::new();
        let mut detail = Vec::new();
        eprintln!(
            "== {} seed={} seconds={} trace={} | passes={} timed={:.2}s attempted={} failed={}",
            self.args.workload,
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace),
            self.passes.len(),
            self.timed_wall_s,
            self.attempted,
            self.failed,
        );
        if self.args.trace {
            for m in decl::per_layer() {
                let value = self.layers.get(&m.name).copied();
                // Why a metric has no value: the workload said so, or it
                // does not exercise that layer at all.
                let reason = match (value, self.nulls.get(&m.name)) {
                    (Some(v), _) => {
                        eprintln!("  {:<42} {:>16.4} {}", m.name, v, m.unit);
                        Value::Null
                    }
                    (None, Some(r)) => {
                        eprintln!("  {:<42} {:>16} ({r})", m.name, "null");
                        Value::Str(r.clone())
                    }
                    (None, None) => Value::Str("not exercised by this workload".into()),
                };
                metrics.push(metric_entry(&m, value.unwrap_or(0.0)));
                detail.push(Value::Object(vec![
                    ("name".into(), Value::Str(m.name.clone())),
                    ("value".into(), value.map_or(Value::Null, Value::F64)),
                    ("reason".into(), reason),
                ]));
            }
            for (name, count, total_ms, self_ms) in span::summarize(&spans) {
                eprintln!("  span {name:<40} n={count:<6} total={total_ms:>10.2}ms self={self_ms:>10.2}ms");
            }
        } else {
            for (m, value, samples) in self.end_to_end_values() {
                let [q1, _, q3] = stats::quartiles(&samples);
                eprintln!(
                    "  {:<18} {:>16.4} {:<4} q1={:.4} q3={:.4} n={}",
                    m.name,
                    value,
                    m.unit,
                    q1,
                    q3,
                    samples.len()
                );
                metrics.push(metric_entry(&m, value));
                detail.push(Value::Object(vec![
                    ("name".into(), Value::Str(m.name.clone())),
                    ("value".into(), Value::F64(value)),
                    ("q1".into(), Value::F64(q1)),
                    ("q3".into(), Value::F64(q3)),
                    ("samples".into(), floats(&samples)),
                ]));
            }
        }

        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);

        let out = Path::new(BENCH_DIR).join("out");
        let stem = format!(
            "{}-trace{}-seed{}",
            self.args.workload,
            u8::from(self.args.trace),
            self.args.seed
        );
        let result_file = Value::Object(vec![
            ("workload".into(), Value::Str(self.args.workload.clone())),
            ("seed".into(), Value::U64(self.args.seed)),
            ("seconds".into(), Value::F64(self.args.seconds)),
            ("trace".into(), Value::Bool(self.args.trace)),
            ("smoke".into(), Value::Bool(self.args.smoke)),
            ("provenance".into(), host::provenance()),
            ("passes".into(), Value::U64(self.passes.len() as u64)),
            (
                "setup_wall_s".into(),
                floats(&self.setups.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
            ),
            ("host_readings".into(), floats(&self.readings)),
            (
                "pass_wall_s".into(),
                floats(&self.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
            ),
            (
                "pass_work".into(),
                floats(&self.passes.iter().map(|p| p.work).collect::<Vec<_>>()),
            ),
            ("timed_wall_s".into(), Value::F64(self.timed_wall_s)),
            ("timed_cpu_s".into(), Value::F64(self.timed_cpu_s)),
            (
                "failures".into(),
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".into(), Value::Array(detail)),
            ("result".into(), line.clone()),
        ]);
        write_file(
            &out.join(format!("result-{stem}.json")),
            &result_file.to_json_pretty(),
        );
        if self.args.trace {
            write_file(
                &out.join(format!("trace-{}.json", self.args.workload)),
                &span::to_json(&self.args.workload, &spans).to_json(),
            );
        }
        if correct {
            let _ = std::fs::remove_dir_all(&self.scratch);
        } else {
            eprintln!(
                "scratch state kept for inspection: {}",
                self.scratch.display()
            );
        }
        (line, correct)
    }
}

fn metric_entry(m: &Metric, value: f64) -> (String, Value) {
    (
        m.name.clone(),
        Value::Object(vec![
            ("value".into(), Value::F64(value)),
            ("unit".into(), Value::Str(m.unit.into())),
        ]),
    )
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().copied().map(Value::F64).collect())
}

pub fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Run `batch` repeatedly until `budget` is spent (at least three times)
/// and return the median seconds one batch took — the probe estimator.
pub fn median_batch_s(budget: Duration, mut batch: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || t0.elapsed() < budget {
        let b0 = Instant::now();
        batch();
        samples.push(b0.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}
