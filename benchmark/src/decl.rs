//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics. `BENCHMARK.json` at
//! the repository root is this module rendered (`noc-benchmark spec`); a
//! unit test keeps the two equal.

use dxbar_noc::Design;
use serde::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The six workloads, each with the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "kernel_8x8",
        "Paper's 8x8 mesh, uniform random at load 0.3, all 11 designs, sequential engine, observers off: \
         64 nodes sit in cache, so router arbitration is nearly all the work. Work unit: node-cycle.",
    ),
    (
        "kernel_64x64_tiled",
        "64x64 mesh, dxbar-dor and scarab on 2 tile workers: a ~50 MB working set makes memory layout, link \
         phase and seam commit dominate; only here can tile parallelism show. Work unit: node-cycle.",
    ),
    (
        "kernel_8x8_observed",
        "Same 8x8 kernel through run_synthetic_verified and run_synthetic_traced: observer seam, probes, \
         trace sink; a change that taxes only observers shows here alone. Work unit: node-cycle.",
    ),
    (
        "campaign_cold",
        "Benchmark-owned 54-point grid, run_campaign on 2 workers into an empty cache: expand, probe miss, \
         simulate, summarise, serialise, store - the path repro_all waits on. Work unit: point.",
    ),
    (
        "campaign_warm",
        "Same grid against a filled cache, plus aggregates, table and manifest: bypasses noc-sim; cache \
         probe, JSON parse, checksum and aggregation are all the work. Work unit: point.",
    ),
    (
        "daemon_mixed",
        "In-process daemon, closed loop, 2 clients: fresh-connection mixed GETs and a keep-alive loop of \
         warm job submit+poll; the only path through http, queue, scheduler, journal. Work unit: 2xx response.",
    ),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The metrics a user of the system sees. Every workload reports every one
/// of them in its own work unit (see [`WORKLOADS`]).
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let bounded = |name: &str, unit, better, bound| Metric {
        bound: Some(bound),
        ..metric(name, unit, better)
    };
    vec![
        // Everything before the first timed pass, median of the set-ups of
        // a run. The largest bound the contract allows: a set-up lasts
        // 0.1-2 s and has one host reading on either side, so it is the
        // noisiest number here (10-20 % between runs on the reference host).
        bounded("setup_s", "s", Lower, 0.25),
        // Work units per (calibrated) host second, median pass. Runs spread
        // by up to 12 % on the reference host, the tiled kernel widest.
        bounded("work_per_s", "1/s", Higher, 0.25),
        // Runs spread by 1-6 %.
        bounded("peak_rss_kb", "kB", Lower, 0.15),
    ]
}

/// Stable key of a design in metric names and result files, in the order
/// the kernel workloads step them.
pub const DESIGNS: [(Design, &str); 11] = [
    (Design::DXbarDor, "dxbar-dor"),
    (Design::DXbarWf, "dxbar-wf"),
    (Design::UnifiedDor, "unified-dor"),
    (Design::UnifiedWf, "unified-wf"),
    (Design::Buffered4, "buffered4"),
    (Design::Buffered8, "buffered8"),
    (Design::FlitBless, "bless"),
    (Design::Scarab, "scarab"),
    (Design::Afc, "afc"),
    (Design::Damq, "damq"),
    (Design::MinBd, "minbd"),
];

pub fn design_key(design: Design) -> &'static str {
    DESIGNS
        .iter()
        .find(|(d, _)| *d == design)
        .map(|(_, k)| *k)
        .expect("every design has a key")
}

/// Daemon routes the mixed workload exercises, as they appear in metric
/// names.
pub const ROUTES: [&str; 6] = [
    "healthz",
    "job_status",
    "jobs_list",
    "results",
    "figure",
    "submit",
];

/// The per-layer metrics of the traced run, grouped by the crate they time.
/// A traced run prints all of them; one a workload does not exercise reads 0
/// there (README.md lists which workload measures which).
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut m = Vec::new();
    // dxbar / noc-baseline / noc-zoo: the routers.
    for (_, d) in DESIGNS {
        m.push(metric(format!("router.{d}.step_ns"), "ns", Lower));
    }
    for (_, d) in DESIGNS {
        m.push(metric(
            format!("kernel.{d}.node_cycles_per_s"),
            "1/s",
            Higher,
        ));
    }
    // noc-traffic
    m.push(metric("traffic.poll_ns_per_node_cycle", "ns", Lower));
    m.push(metric("traffic.splash_poll_ns_per_cycle", "ns", Lower));
    m.push(metric("traffic.packets_generated", "count", Higher));
    // noc-topology / noc-core
    m.push(metric("link.send_recv_ns", "ns", Lower));
    m.push(metric("topology.tile_partition_us", "us", Lower));
    m.push(metric("core.pool_alloc_take_ns", "ns", Lower));
    m.push(metric("core.latency_record_ns", "ns", Lower));
    // noc-sim
    for size in ["8x8", "16x16", "32x32", "64x64"] {
        m.push(metric(
            format!("sim.node_cycles_per_s.{size}"),
            "1/s",
            Higher,
        ));
    }
    for w in ["w0", "w1", "w2"] {
        m.push(metric(
            format!("sim.tiled.{w}.node_cycles_per_s"),
            "1/s",
            Higher,
        ));
    }
    m.push(metric("sim.tiled.w2_over_w0", "x", Higher));
    m.push(metric("sim.tiled.w1_over_w0", "x", Higher));
    m.push(metric("sim.rss_kb_per_node.64x64", "kB", Lower));
    m.push(metric("sim.load.0.1.node_cycles_per_s", "1/s", Higher));
    m.push(metric("sim.load.0.6.node_cycles_per_s", "1/s", Higher));
    m.push(metric("sim.build_us_per_node.8x8", "us", Lower));
    m.push(metric("sim.build_us_per_node.64x64", "us", Lower));
    m.push(metric("sim.run_overhead_share", "share", Lower));
    m.push(metric("sim.steady_allocs_per_kcycle", "count", Lower));
    m.push(metric("sim.flits_delivered", "count", Higher));
    // noc-trace / noc-verify / noc-resilience / noc-scenario
    m.push(metric("trace.overhead_x", "x", Lower));
    m.push(metric("trace.events", "count", Higher));
    m.push(metric("trace.export_ms", "ms", Lower));
    m.push(metric("verify.overhead_x", "x", Lower));
    m.push(metric("verify.checks", "count", Higher));
    m.push(metric("resilience.overhead_x", "x", Lower));
    m.push(metric("faults.plan_us", "us", Lower));
    m.push(metric("scenario.run_ms", "ms", Lower));
    // noc-campaign + shims/serde_json
    for name in [
        "campaign.spec_parse_us",
        "campaign.points_expand_us_per_point",
        "campaign.cache_key_us",
        "campaign.cache_store_us",
        "campaign.cache_load_hit_us",
        "campaign.cache_load_miss_us",
    ] {
        m.push(metric(name, "us", Lower));
    }
    m.push(metric("campaign.cache_entry_bytes", "B", Lower));
    m.push(metric("campaign.result_serialize_us", "us", Lower));
    m.push(metric("campaign.result_deserialize_us", "us", Lower));
    m.push(metric("json.parse_mb_per_s", "MB/s", Higher));
    m.push(metric("json.write_mb_per_s", "MB/s", Higher));
    m.push(metric("campaign.aggregate_us_per_point", "us", Lower));
    m.push(metric("campaign.manifest_ms", "ms", Lower));
    m.push(metric("campaign.point_overhead_ms", "ms", Lower));
    m.push(metric("campaign.sim_share_cold", "share", Higher));
    m.push(metric("campaign.parallel_efficiency", "share", Higher));
    m.push(metric("campaign.cpu_s_per_point", "s", Lower));
    m.push(metric("campaign.cache_hits", "count", Higher));
    m.push(metric("campaign.cache_misses", "count", Lower));
    m.push(metric("campaign.dedup_points", "count", Higher));
    m.push(metric("campaign.failed_points", "count", Lower));
    // noc-daemon
    m.push(metric("daemon.start_ms", "ms", Lower));
    for route in ROUTES {
        m.push(metric(format!("daemon.{route}.p50_ms"), "ms", Lower));
        m.push(metric(format!("daemon.{route}.p90_ms"), "ms", Lower));
    }
    m.push(metric("daemon.fresh_conn.p50_ms", "ms", Lower));
    m.push(metric("daemon.keepalive.p50_ms", "ms", Lower));
    m.push(metric("daemon.request_p50_ms", "ms", Lower));
    m.push(metric("daemon.request_p95_ms", "ms", Lower));
    m.push(metric("daemon.job_turnaround_p50_ms", "ms", Lower));
    m.push(metric("daemon.direct.health_value_us", "us", Lower));
    m.push(metric("daemon.direct.job_value_us", "us", Lower));
    m.push(metric("daemon.direct.figure_text_ms", "ms", Lower));
    m.push(metric("daemon.direct.submit_us", "us", Lower));
    m.push(metric("daemon.requests_total", "count", Higher));
    m.push(metric("daemon.jobs_submitted", "count", Higher));
    m.push(metric("daemon.http_non2xx", "count", Lower));
    // Simulated time, exact: must never move under a simulator-speed change.
    m.push(metric(
        "model.dxbar-dor.avg_latency_cycles",
        "cycles",
        Lower,
    ));
    m.push(metric(
        "model.dxbar-dor.accepted_rate",
        "flit/node/cycle",
        Higher,
    ));
    m.push(metric(
        "model.buffered4.accepted_rate",
        "flit/node/cycle",
        Higher,
    ));
    // The harness itself.
    m.push(metric("bench.trace_overhead_x", "x", Lower));
    m.push(metric("bench.ops_attempted", "count", Higher));
    // CPU time of the workload's threads per work unit over the timed
    // passes: shows a speed-up bought by spinning or with disproportionate
    // CPU.
    m.push(metric("bench.cpu_us_per_work", "us", Lower));
    m
}

fn metric_value(m: &Metric) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str(m.name.clone())),
        ("unit".into(), Value::Str(m.unit.into())),
        ("better".into(), Value::Str(m.better.name().into())),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound".into(), Value::F64(b)));
    }
    Value::Object(fields)
}

/// `BENCHMARK.json`, rendered from the declarations above.
pub fn benchmark_json() -> Value {
    let strs = |xs: &[&str]| Value::Array(xs.iter().map(|s| Value::Str((*s).into())).collect());
    Value::Object(vec![
        ("command".into(), strs(&["bash", "benchmark/run.sh"])),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str((*name).into())),
                            ("why".into(), Value::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(end_to_end().iter().map(metric_value).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(per_layer().iter().map(metric_value).collect()),
        ),
    ])
}

/// The declared end-to-end bounds as read back from a `BENCHMARK.json`
/// file: (name, better, bound). `compare` applies the file, not the code.
pub fn bounds_from_json(text: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let v = serde_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = v
        .field("end_to_end")
        .as_array()
        .ok_or("BENCHMARK.json: end_to_end is not a list")?;
    rows.iter()
        .map(|m| {
            let name = m
                .field("name")
                .as_str()
                .ok_or("end_to_end entry without a name")?;
            let better = match m.field("better").as_str() {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => {
                    return Err(format!(
                        "{name}: better must be higher or lower, got {other:?}"
                    ))
                }
            };
            let bound = m
                .field("bound")
                .as_f64()
                .ok_or_else(|| format!("{name}: missing bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in workload_names() {
            assert!(name_ok(w), "workload name {w:?}");
            assert!(seen.insert(w.to_string()), "duplicate name {w}");
        }
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(name_ok(&m.name), "metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
        }
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {}",
                why.len()
            );
        }
    }

    #[test]
    fn declared_counts_and_bounds_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        let e2e = end_to_end();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&per_layer().len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &e2e {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_on_disk_equals_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let on_disk = serde_json::parse(&text).expect("parse BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: noc-benchmark spec > BENCHMARK.json"
        );
        let bounds = bounds_from_json(&text).unwrap();
        assert_eq!(bounds.len(), end_to_end().len());
    }

    /// The `key = value` lines of one table of a Cargo manifest.
    fn manifest_table(text: &str, header: &str) -> BTreeSet<String> {
        text.lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect::<String>())
            .collect()
    }

    #[test]
    fn release_profile_equals_the_root_manifest() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let read = |p: String| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let own = manifest_table(&read(format!("{dir}/Cargo.toml")), "[profile.release]");
        let root = manifest_table(&read(format!("{dir}/../Cargo.toml")), "[profile.release]");
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(
            own, root,
            "copy the root [profile.release] into benchmark/Cargo.toml"
        );
    }

    #[test]
    fn every_design_has_exactly_one_key() {
        for d in Design::ALL {
            assert!(name_ok(design_key(d)));
        }
        assert_eq!(DESIGNS.len(), Design::ALL.len());
    }
}
