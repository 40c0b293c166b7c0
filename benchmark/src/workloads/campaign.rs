//! The two campaign workloads: the benchmark-owned grid run cold (empty
//! cache, every point simulated on two workers) and warm (every point a
//! cache hit, then aggregated, tabulated and written as a manifest).
//!
//! The grid is `workloads/campaign_grid.json`, not a figure preset, so the
//! load stays fixed when the presets change. `--seed` replaces the seed list
//! of every group.

use crate::run::{median_batch_s, Cx, BENCH_DIR};
use crate::span::{self, Tracer};
use crate::stats;
use noc_campaign::{
    no_faults, render_table, run_campaign_with, run_point, CampaignReport, CampaignSpec,
    ExecOptions, ResultCache, CODE_VERSION,
};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Campaign workers: the two cores of the reference host.
const JOBS: usize = 2;

fn grid_text() -> String {
    let path = Path::new(BENCH_DIR).join("workloads/campaign_grid.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Parse the grid and bind it to this run's seed. `--smoke` shrinks every
/// window to a fifth; the point set is unchanged.
fn grid(cx: &Cx, text: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::from_json(text).expect("campaign_grid.json parses");
    for g in &mut spec.groups {
        g.seeds = vec![cx.args.seed];
        if cx.args.smoke {
            g.config.warmup_cycles /= 5;
            g.config.measure_cycles /= 5;
            g.config.drain_cycles /= 5;
        }
    }
    spec.validate().expect("campaign_grid.json is a valid spec");
    spec
}

fn options(cache: &Path, jobs: usize) -> ExecOptions {
    ExecOptions {
        cache_dir: Some(cache.to_path_buf()),
        jobs: Some(jobs),
        code_salt: CODE_VERSION.to_string(),
        progress: false,
        verify: false,
        cooperative: false,
        io_policy: no_faults(),
    }
}

/// `run_campaign` with a span around every direct `run_point` call, so the
/// traced run can split a cold pass into simulation and engine overhead.
fn run(
    spec: &CampaignSpec,
    cache: &Path,
    jobs: usize,
    tracer: &Tracer,
    parent: Option<u32>,
) -> CampaignReport {
    run_campaign_with(spec, &options(cache, jobs), &|p| {
        let _s = tracer.span("run_point", parent);
        run_point(p)
    })
    .expect("validated spec runs")
}

fn table(report: &CampaignReport) -> String {
    render_table(&report.aggregates())
}

/// Points of the grid that repeat an earlier point (the duplicated group).
fn dedup_points(report: &CampaignReport) -> usize {
    report.outcomes.iter().filter(|o| o.deduped).count()
}

/// `campaign_cold`: every pass starts from an empty cache directory.
pub fn campaign_cold(cx: &mut Cx) {
    let tracer = cx.tracer.clone();
    let text = grid_text();
    // Set-up is parse, expand and one untimed cold campaign: it warms the
    // allocator and the page cache and yields the table every pass repeats.
    let (spec, reference) = cx.setup(|cx| {
        let spec = grid(cx, &text);
        let dir = cx.scratch_dir("cold-setup");
        let report = run(&spec, &dir, JOBS, &tracer, None);
        (spec, table(&report))
    });

    let mut last = None;
    cx.begin_timed();
    while cx.next_pass() {
        let dir = cx.scratch_dir("cold-pass");
        let t0 = Instant::now();
        let report = {
            let pass = tracer.span("run_campaign", None);
            run(&spec, &dir, JOBS, &tracer, pass.id())
        };
        let wall = t0.elapsed().as_secs_f64();
        let points = report.outcomes.len();
        cx.pass(points as f64, wall);
        cx.ops(points as u64);
        let misses = points - dedup_points(&report);
        cx.check(
            report.failed_count() == 0
                && report.cache_hits() == 0
                && report.cache_misses() == misses,
            || {
                format!(
                    "cold campaign: {} failed, {} hits, {} misses of {points} points",
                    report.failed_count(),
                    report.cache_hits(),
                    report.cache_misses()
                )
            },
        );
        cx.check(table(&report) == reference, || {
            "cold campaign table differs from the set-up table".into()
        });
        last = Some(report);
    }
    cx.end_timed();

    if cx.args.trace {
        let report = last.expect("at least one pass");
        let points = report.outcomes.len() as f64;
        cx.layer("campaign.cache_hits", report.cache_hits() as f64);
        cx.layer("campaign.cache_misses", report.cache_misses() as f64);
        cx.layer("campaign.dedup_points", dedup_points(&report) as f64);
        cx.layer("campaign.failed_points", report.failed_count() as f64);
        cx.layer(
            "campaign.cpu_s_per_point",
            cx.timed_cpu_s() / (points * cx.passes_done() as f64),
        );

        // Per traced pass: worker-seconds available against the seconds the
        // workers spent inside run_point.
        let spans = tracer.finished();
        let mut overhead_ms = Vec::new();
        let mut sim_share = Vec::new();
        for pass in spans.iter().filter(|s| s.name == "run_campaign") {
            let sim_ns: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(pass.id))
                .map(span::Span::duration_ns)
                .sum();
            let avail_ns = JOBS as f64 * pass.duration_ns() as f64;
            overhead_ms.push((avail_ns - sim_ns as f64) / 1e6 / points);
            sim_share.push(sim_ns as f64 / avail_ns);
        }
        cx.layer("campaign.point_overhead_ms", stats::median(&overhead_ms));
        cx.layer("campaign.sim_share_cold", stats::median(&sim_share));

        let probes = tracer.span("probes", None);
        let _s = tracer.span("run_campaign:jobs=1", probes.id());
        let budget = cx.probe_budget(1);
        let one_worker_s = median_batch_s(budget, || {
            let dir = cx.scratch_dir("cold-probe");
            black_box(run(&spec, &dir, 1, &tracer, None));
        });
        let two_workers_s = stats::median(&span::durations_ms(&spans, "run_campaign")) / 1e3;
        cx.layer(
            "campaign.parallel_efficiency",
            one_worker_s / (JOBS as f64 * two_workers_s),
        );
    }
}

/// `campaign_warm`: the cache is filled in set-up; a pass is what a user
/// re-running a finished campaign waits for.
pub fn campaign_warm(cx: &mut Cx) {
    let tracer = cx.tracer.clone();
    let text = grid_text();
    let (spec, cache, reference) = cx.setup(|cx| {
        let spec = grid(cx, &text);
        let cache = cx.scratch_dir("warm-cache");
        let report = run(&spec, &cache, JOBS, &tracer, None);
        (spec, cache, table(&report))
    });

    let mut last = None;
    cx.begin_timed();
    while cx.next_pass() {
        let t0 = Instant::now();
        let (report, rendered, manifest) = {
            let pass = tracer.span("pass", None);
            let report = {
                let _s = tracer.span("run_campaign", pass.id());
                run(&spec, &cache, JOBS, &tracer, pass.id())
            };
            let aggregates = {
                let _s = tracer.span("CampaignReport::aggregates", pass.id());
                report.aggregates()
            };
            let rendered = {
                let _s = tracer.span("render_table", pass.id());
                render_table(&aggregates)
            };
            let manifest = {
                let _s = tracer.span("CampaignManifest::to_json", pass.id());
                report.manifest().to_json()
            };
            (report, rendered, manifest)
        };
        let wall = t0.elapsed().as_secs_f64();
        let points = report.outcomes.len();
        cx.pass(points as f64, wall);
        cx.ops(points as u64);
        cx.check(
            report.failed_count() == 0 && report.cache_misses() == 0,
            || {
                format!(
                    "warm campaign: {} failed, {} misses of {points} points",
                    report.failed_count(),
                    report.cache_misses()
                )
            },
        );
        cx.check(rendered == reference && !manifest.is_empty(), || {
            "warm campaign table differs from the cold table of set-up".into()
        });
        last = Some(report);
    }
    cx.end_timed();

    if cx.args.trace {
        let report = last.expect("at least one pass");
        cx.layer("campaign.cache_hits", report.cache_hits() as f64);
        cx.layer("campaign.cache_misses", report.cache_misses() as f64);
        cx.layer("campaign.dedup_points", dedup_points(&report) as f64);
        cx.layer("campaign.failed_points", report.failed_count() as f64);
        cache_probes(cx, &text, &spec, &cache, &report);
    }
}

/// Probes of `noc-campaign` and `shims/serde_json`, reported by the traced
/// `campaign_warm` run: everything a warm pass is made of, one call each.
fn cache_probes(
    cx: &mut Cx,
    text: &str,
    spec: &CampaignSpec,
    cache_dir: &Path,
    report: &CampaignReport,
) {
    let budget = cx.probe_budget(12);
    let tracer = cx.tracer.clone();
    let probes = tracer.span("probes", None);
    let us = |s: f64| s * 1e6;

    {
        let _s = tracer.span("CampaignSpec::from_json+points", probes.id());
        let s = median_batch_s(budget, || {
            black_box(CampaignSpec::from_json(text).expect("grid parses"));
        });
        cx.layer("campaign.spec_parse_us", us(s));
        let n = spec.points().len() as f64;
        let s = median_batch_s(budget, || {
            black_box(spec.points());
        });
        cx.layer("campaign.points_expand_us_per_point", us(s) / n);
    }

    let points = spec.points();
    let n = points.len() as f64;
    {
        let _s = tracer.span("PointSpec::cache_key", probes.id());
        let s = median_batch_s(budget, || {
            for p in &points {
                black_box(p.cache_key(CODE_VERSION));
            }
        });
        cx.layer("campaign.cache_key_us", us(s) / n);
    }

    let cache = ResultCache::open(cache_dir, CODE_VERSION).expect("open warm cache");
    let results: Vec<_> = points
        .iter()
        .map(|p| cache.load(p).expect("warm cache holds every point"))
        .collect();
    {
        let _s = tracer.span("ResultCache::load+store", probes.id());
        let s = median_batch_s(budget, || {
            for p in &points {
                black_box(cache.load(p));
            }
        });
        cx.layer("campaign.cache_load_hit_us", us(s) / n);

        // The same points under a seed nobody ran: every probe misses.
        let absent: Vec<_> = points
            .iter()
            .map(|p| {
                let mut q = p.clone();
                q.seed = !p.seed;
                q.config.seed = q.seed;
                q
            })
            .collect();
        let s = median_batch_s(budget, || {
            for p in &absent {
                black_box(cache.load(p));
            }
        });
        cx.layer("campaign.cache_load_miss_us", us(s) / n);

        let store_dir = cx.scratch_dir("store-probe");
        let store = ResultCache::open(&store_dir, CODE_VERSION).expect("open store cache");
        let s = median_batch_s(budget, || {
            for (p, r) in points.iter().zip(&results) {
                store.store(p, r);
            }
        });
        cx.layer("campaign.cache_store_us", us(s) / n);
    }

    // One representative entry for the JSON layer: the first point's file.
    let entry_path = cache_dir.join(format!("{}.json", points[0].cache_key(CODE_VERSION)));
    let entry = std::fs::read_to_string(&entry_path).expect("read a cache entry");
    let entry_sizes: Vec<u64> = std::fs::read_dir(cache_dir)
        .expect("list warm cache")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| Some(e.metadata().ok()?.len()))
        .collect();
    cx.layer(
        "campaign.cache_entry_bytes",
        entry_sizes.iter().sum::<u64>() as f64 / entry_sizes.len().max(1) as f64,
    );
    {
        let _s = tracer.span("serde_json", probes.id());
        let mb = entry.len() as f64 / 1e6;
        let s = median_batch_s(budget, || {
            black_box(serde_json::parse(&entry).expect("entry parses"));
        });
        cx.layer("json.parse_mb_per_s", mb / s);
        let value = serde_json::parse(&entry).expect("entry parses");
        let s = median_batch_s(budget, || {
            black_box(value.to_json_pretty());
        });
        cx.layer("json.write_mb_per_s", mb / s);

        let result = &results[0];
        let s = median_batch_s(budget, || {
            black_box(result.to_value());
        });
        cx.layer("campaign.result_serialize_us", us(s));
        let result_value = result.to_value();
        let s = median_batch_s(budget, || {
            black_box(dxbar_noc::RunResult::from_value(&result_value).expect("result decodes"));
        });
        cx.layer("campaign.result_deserialize_us", us(s));
    }

    {
        let _s = tracer.span("aggregates+manifest", probes.id());
        let s = median_batch_s(budget, || {
            black_box(report.aggregates());
        });
        cx.layer(
            "campaign.aggregate_us_per_point",
            us(s) / report.outcomes.len() as f64,
        );
        let s = median_batch_s(budget, || {
            black_box(report.manifest().to_json());
        });
        cx.layer("campaign.manifest_ms", s * 1e3);
    }
}
