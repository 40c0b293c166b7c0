//! Integration tests for the campaign engine: caching, resumability,
//! fault isolation and parallel determinism.

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, RunResult, SimConfig};
use noc_campaign::{
    run_campaign, run_campaign_with, CampaignSpec, ExecOptions, PointGroup, PointSpec,
    WorkloadAxis, CODE_VERSION,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique scratch directory per test (no tempfile crate in the offline
/// build); removed on a best-effort basis at the end of each test.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "noc-campaign-test-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// 2 designs x 2 loads x 2 seeds = 8 points, small enough to really
/// simulate in a test.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec::new("tiny").with_group(PointGroup {
        label: "tiny".into(),
        config: tiny_cfg(),
        designs: vec![Design::DXbarDor, Design::FlitBless],
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads: vec![0.15, 0.3],
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![1, 2],
        tag: None,
    })
}

/// Cheap deterministic pseudo-result for executor-focused tests: no
/// simulation, value derived from the point so cache comparisons are
/// meaningful.
fn fake_result(p: &PointSpec) -> RunResult {
    RunResult {
        design: p.design.name().into(),
        traffic: p.workload.describe(),
        offered_load: Some(p.workload.x()),
        accepted_rate: p.workload.x() * 0.9,
        accepted_fraction: p.workload.x() * 0.9,
        avg_packet_latency: 10.0 + p.seed as f64,
        avg_flit_latency: 10.0 + p.seed as f64,
        avg_packet_energy_nj: 0.3,
        energy: Default::default(),
        accepted_packets: 100 + p.seed,
        deflections_per_packet: 0.0,
        drops_per_packet: 0.0,
        buffered_fraction: 0.1,
        max_source_latency: 20.0,
        latency_spread: 1.2,
        finish_cycle: None,
        completed: true,
        lost_flits: 0,
        crc_rejects: 0,
        ni_retransmits: 0,
        avg_recovery_latency: 0.0,
        apps: Vec::new(),
        stats: Default::default(),
    }
}

fn opts_with_cache(dir: &Path) -> ExecOptions {
    ExecOptions {
        cache_dir: Some(dir.to_path_buf()),
        jobs: Some(2),
        ..ExecOptions::default()
    }
}

#[test]
fn second_invocation_hits_cache_for_every_point() {
    let dir = scratch("rehit");
    let spec = tiny_spec();

    let calls = AtomicUsize::new(0);
    let runner = |p: &PointSpec| {
        calls.fetch_add(1, Ordering::Relaxed);
        fake_result(p)
    };

    let first = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(first.outcomes.len(), 8);
    assert_eq!(first.failed_count(), 0);
    assert_eq!(first.cache_hits(), 0);
    assert_eq!(calls.load(Ordering::Relaxed), 8);

    let second = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(second.cache_hits(), 8, "identical spec must fully hit");
    assert_eq!(calls.load(Ordering::Relaxed), 8, "no re-simulation");

    // Cached results are identical to the originals.
    let a = serde_json::to_string(&first.results()).unwrap();
    let b = serde_json::to_string(&second.results()).unwrap();
    assert_eq!(a, b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn any_field_change_misses_cache() {
    let dir = scratch("invalidate");
    let runner = |p: &PointSpec| fake_result(p);

    let spec = tiny_spec();
    run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();

    // Different seed set: all points miss.
    let mut reseeded = tiny_spec();
    reseeded.groups[0].seeds = vec![3, 4];
    let r = run_campaign_with(&reseeded, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.cache_hits(), 0, "new seeds must not hit");

    // Changed config field: all points miss.
    let mut deeper = tiny_spec();
    deeper.groups[0].config.buffer_depth = 8;
    let r = run_campaign_with(&deeper, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.cache_hits(), 0, "config change must not hit");

    // Changed code-version salt: all points miss even with identical spec.
    let mut salted = opts_with_cache(&dir);
    salted.code_salt = format!("{CODE_VERSION}-next");
    let r = run_campaign_with(&tiny_spec(), &salted, &runner).unwrap();
    assert_eq!(r.cache_hits(), 0, "salt bump must invalidate everything");

    // Extended load axis: the old points hit, only the new load runs.
    let mut extended = tiny_spec();
    if let WorkloadAxis::Synthetic { loads, .. } = &mut extended.groups[0].workload {
        loads.push(0.45);
    }
    let r = run_campaign_with(&extended, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.outcomes.len(), 12);
    assert_eq!(r.cache_hits(), 8, "old points must still hit");
    assert_eq!(r.cache_misses(), 4, "only the new load simulates");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_entries_are_misses_not_panics() {
    let dir = scratch("corrupt");
    let runner = |p: &PointSpec| fake_result(p);
    let spec = tiny_spec();
    run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();

    // Vandalize every entry a different way.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 8);
    for (i, path) in entries.iter().enumerate() {
        match i % 4 {
            0 => std::fs::write(path, "{ not json at all").unwrap(), // truncated/garbled
            1 => std::fs::write(path, "").unwrap(),                  // empty file
            2 => {
                // Valid JSON, wrong shape.
                std::fs::write(path, "{\"salt\": \"nope\"}").unwrap();
            }
            _ => {
                // Truncate a valid entry halfway through.
                let text = std::fs::read_to_string(path).unwrap();
                std::fs::write(path, &text[..text.len() / 2]).unwrap();
            }
        }
    }

    let r = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.cache_hits(), 0, "all vandalized entries must miss");
    assert_eq!(r.failed_count(), 0, "corruption must not fail points");
    assert_eq!(r.cache_misses(), 8, "every point re-simulates");

    // And the re-run repaired the cache.
    let r = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.cache_hits(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Silent bit-rot: an entry whose stored payload no longer matches its
/// content checksum — while the salt and point identity still parse and
/// match — must degrade to a *detected* miss for exactly that point, with
/// the offending path reported, and never be served as a result.
#[test]
fn checksum_mismatch_with_matching_identity_is_a_detected_miss() {
    use noc_campaign::io::{IoFault, IoOp, IoPolicy};
    use std::sync::{Arc, Mutex};

    /// Records every path the cache reports as a detected-corrupt entry.
    #[derive(Debug, Default)]
    struct Detections(Mutex<Vec<PathBuf>>);
    impl IoPolicy for Detections {
        fn inject(&self, _op: IoOp, _path: &Path, _attempt: u32) -> Option<IoFault> {
            None
        }
        fn on_detected(&self, path: &Path) {
            self.0.lock().unwrap().push(path.to_path_buf());
        }
    }

    let dir = scratch("bitrot");
    let spec = tiny_spec();
    let runner = |p: &PointSpec| fake_result(p);
    run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();

    // Rot one digit inside the stored *result* payload of one entry,
    // leaving the JSON valid and the salt + point identity untouched
    // (`latency_spread` 1.2 appears nowhere else in the entry text).
    let key = spec.points()[0].cache_key(&opts_with_cache(&dir).cache_salt());
    let victim = dir.join(format!("{key}.json"));
    let text = std::fs::read_to_string(&victim).unwrap();
    assert_eq!(
        text.matches("1.2").count(),
        1,
        "tamper target must be unique"
    );
    std::fs::write(&victim, text.replace("1.2", "3.4")).unwrap();

    let det = Arc::new(Detections::default());
    let opts = ExecOptions {
        io_policy: det.clone(),
        ..opts_with_cache(&dir)
    };
    let r = run_campaign_with(&spec, &opts, &runner).unwrap();
    assert_eq!(r.cache_hits(), 7, "untampered entries still hit");
    assert_eq!(r.cache_misses(), 1, "exactly the rotten entry misses");
    assert_eq!(r.failed_count(), 0, "bit-rot must never fail a point");
    let detected = det.0.lock().unwrap().clone();
    assert_eq!(detected, vec![victim], "detection names the offending path");

    // The miss re-simulated and re-stored: the cache is repaired.
    let r = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.cache_hits(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_point_is_isolated_and_campaign_continues() {
    let dir = scratch("panic");
    let spec = tiny_spec();

    // The point with seed 2 at load 0.3 for FlitBless panics.
    let poison =
        |p: &PointSpec| p.design == Design::FlitBless && p.seed == 2 && p.workload.x() == 0.3;
    let runner = |p: &PointSpec| {
        if poison(p) {
            panic!("deliberate test explosion at {}", p.describe());
        }
        fake_result(p)
    };

    let r = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.outcomes.len(), 8, "all sibling points still present");
    assert_eq!(r.failed_count(), 1, "exactly the poisoned point failed");
    let failed = r.failed().next().unwrap();
    assert!(poison(&failed.point));
    assert_eq!(failed.attempts, 1);

    // The manifest records the failure with its reason.
    let m = r.manifest();
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 7);
    let rec = m.points.iter().find(|p| p.status == "failed").unwrap();
    assert!(
        rec.reason.contains("deliberate test explosion"),
        "{}",
        rec.reason
    );

    // Killed-and-restarted campaign: the second invocation (healthy code)
    // re-runs ONLY the point that never completed.
    let calls = AtomicUsize::new(0);
    let healthy = |p: &PointSpec| {
        calls.fetch_add(1, Ordering::Relaxed);
        fake_result(p)
    };
    let resumed = run_campaign_with(&spec, &opts_with_cache(&dir), &healthy).unwrap();
    assert_eq!(resumed.failed_count(), 0);
    assert_eq!(resumed.cache_hits(), 7, "completed points come from cache");
    assert_eq!(
        calls.load(Ordering::Relaxed),
        1,
        "only the missing point runs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run that offered flits and delivered none is a failed point: named in
/// the manifest's quarantine list, never retried (a rerun is deterministic)
/// and never cached, so the next campaign runs it again.
#[test]
fn stalled_point_fails_unretried_and_uncached() {
    let dir = scratch("stalled");
    let spec = {
        let mut s = tiny_spec();
        s.retry.max_retries = 2;
        s
    };
    let stuck =
        |p: &PointSpec| p.design == Design::FlitBless && p.seed == 1 && p.workload.x() == 0.3;
    let calls = AtomicUsize::new(0);
    let runner = |p: &PointSpec| {
        let mut r = fake_result(p);
        if stuck(p) {
            calls.fetch_add(1, Ordering::Relaxed);
            r.stats.offered_flits = 640;
        }
        r
    };

    let r = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.failed_count(), 1);
    let failed = r.failed().next().unwrap();
    assert!(stuck(&failed.point));
    assert_eq!(failed.attempts, 1, "not retried");
    assert_eq!(calls.load(Ordering::Relaxed), 1);
    let m = r.manifest();
    assert_eq!(m.quarantined.len(), 1);
    assert_eq!(
        m.quarantined[0].reason,
        "stalled: 0 of 640 offered flits delivered"
    );

    let r = run_campaign_with(&spec, &opts_with_cache(&dir), &runner).unwrap();
    assert_eq!(r.cache_hits(), 7, "the stalled point was never stored");
    assert_eq!(r.failed_count(), 1);
    assert_eq!(calls.load(Ordering::Relaxed), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_policy_reattempts_flaky_points() {
    let spec = {
        let mut s = tiny_spec();
        s.retry.max_retries = 2;
        s
    };
    // Fails on the first attempt of every point, succeeds on retry.
    let calls = AtomicUsize::new(0);
    let runner = |p: &PointSpec| {
        if calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
            panic!("transient failure");
        }
        fake_result(p)
    };
    let opts = ExecOptions {
        jobs: Some(1),
        ..ExecOptions::default()
    };
    let r = run_campaign_with(&spec, &opts, &runner).unwrap();
    assert_eq!(r.failed_count(), 0, "retries must rescue transient panics");
    assert!(r.outcomes.iter().all(|o| o.attempts == 2));
}

#[test]
fn parallel_and_sequential_runs_are_byte_identical() {
    // Real simulations here — this is the determinism guarantee the bench
    // harness relies on: worker count must never leak into results.
    let spec = tiny_spec();
    let seq = run_campaign(
        &spec,
        &ExecOptions {
            jobs: Some(1),
            ..ExecOptions::default()
        },
    )
    .unwrap();
    let par = run_campaign(
        &spec,
        &ExecOptions {
            jobs: Some(4),
            ..ExecOptions::default()
        },
    )
    .unwrap();
    assert_eq!(seq.jobs, 1);
    assert_eq!(par.jobs, 4);

    let a = serde_json::to_string(&seq.results()).unwrap();
    let b = serde_json::to_string(&par.results()).unwrap();
    assert_eq!(a, b, "results must not depend on worker count");

    // Aggregates (means + CIs) fold in fixed point order, so they are
    // byte-identical too.
    let fmt = |r: &noc_campaign::CampaignReport| {
        r.aggregates()
            .iter()
            .map(|g| {
                let s = g.summary(|x| x.avg_packet_latency);
                format!(
                    "{}|{}|{}|{:.17e}|{:.17e}\n",
                    g.design, g.workload, g.x, s.mean, s.ci95
                )
            })
            .collect::<String>()
    };
    assert_eq!(fmt(&seq), fmt(&par));
}

#[test]
fn real_simulation_results_roundtrip_through_the_cache() {
    let dir = scratch("realsim");
    let spec = CampaignSpec::new("real").with_group(PointGroup {
        label: "real".into(),
        config: tiny_cfg(),
        designs: vec![Design::DXbarDor],
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads: vec![0.2],
        },
        fault_fractions: vec![0.0, 0.5],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![7],
        tag: None,
    });
    let fresh = run_campaign(&spec, &opts_with_cache(&dir)).unwrap();
    assert_eq!(fresh.failed_count(), 0);
    let cached = run_campaign(&spec, &opts_with_cache(&dir)).unwrap();
    assert_eq!(cached.cache_hits(), 2);
    let a = serde_json::to_string(&fresh.results()).unwrap();
    let b = serde_json::to_string(&cached.results()).unwrap();
    assert_eq!(a, b, "cache must reproduce simulation results exactly");
    // The faulty point really injected faults (different outcome).
    let rs = fresh.results();
    assert!(rs[0].accepted_packets > 0);
    assert!(rs[1].accepted_packets > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verified_campaign_reports_clean_manifest_block() {
    let dir = scratch("verified");
    let spec = CampaignSpec::new("verified").with_group(PointGroup {
        label: "verified".into(),
        config: tiny_cfg(),
        designs: vec![Design::DXbarDor, Design::UnifiedWf],
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads: vec![0.2],
        },
        fault_fractions: vec![0.0, 0.5],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![7],
        tag: None,
    });
    let opts = ExecOptions {
        verify: true,
        ..opts_with_cache(&dir)
    };

    let r = run_campaign(&spec, &opts).unwrap();
    assert_eq!(r.failed_count(), 0);
    assert!(r.verify_enabled);
    assert_eq!(r.total_violations(), 0);
    let m = r.manifest();
    assert!(m.code_version.ends_with("+verify"));
    let v = m.verify.as_ref().expect("verify block present");
    assert!(v.enabled);
    assert_eq!(v.verified_points, 4);
    assert_eq!(v.violations, 0);
    assert!(v.checks > 0, "oracles must actually have run");

    // Verified and unverified results live in disjoint cache namespaces.
    let plain = run_campaign(&spec, &opts_with_cache(&dir)).unwrap();
    assert_eq!(plain.cache_hits(), 0, "unverified run must not hit +verify");
    assert!(plain.manifest().verify.is_none());

    // A second verified run hits its own namespace; the manifest still
    // reports verification enabled with nothing re-verified.
    let again = run_campaign(&spec, &opts).unwrap();
    assert_eq!(again.cache_hits(), 4);
    let v = again.manifest().verify.unwrap();
    assert_eq!(v.verified_points, 0);
    assert_eq!(v.violations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verified_resilience_campaign_is_clean_and_accounts_faults() {
    // The acceptance run of the resilience layer: transient soft errors and
    // a permanent link fault, under the full oracle suite. The drain window
    // exceeds the worst ARQ give-up chain so the run reaches quiescence and
    // the end-of-run accounting oracles actually fire.
    let spec = CampaignSpec::new("resilience").with_group(PointGroup {
        label: "resilience".into(),
        config: SimConfig {
            drain_cycles: 6_000,
            ..tiny_cfg()
        },
        designs: vec![Design::DXbarWf, Design::FlitBless],
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads: vec![0.1],
        },
        fault_fractions: vec![],
        transient_rates: vec![2e-3],
        link_faults: vec![1],
        seeds: vec![3, 4],
        tag: None,
    });
    let opts = ExecOptions {
        verify: true,
        cache_dir: None,
        jobs: Some(2),
        ..ExecOptions::default()
    };

    let r = run_campaign(&spec, &opts).unwrap();
    assert_eq!(r.failed_count(), 0);
    assert_eq!(
        r.total_violations(),
        0,
        "transient faults + ARQ recovery must satisfy every oracle"
    );
    let results = r.results();
    assert!(
        results
            .iter()
            .all(|res| res.crc_rejects + res.ni_retransmits + res.lost_flits > 0),
        "a 2e-3 transient rate must produce observable recovery activity"
    );
    assert!(
        results.iter().any(|res| res.ni_retransmits > 0),
        "some corrupted flits must have been recovered by retransmission"
    );

    // Degradation is aggregable: replicates fold per (design, rate, links).
    let aggs = r.aggregates();
    assert_eq!(aggs.len(), 2);
    assert!(aggs.iter().all(|a| a.n() == 2));
    assert!(aggs
        .iter()
        .all(|a| a.transient_rate == 2e-3 && a.link_fault_count == 1));
}

#[test]
fn identical_points_across_groups_are_deduplicated_in_run() {
    // fig05 and fig06 declare the same sweep under different labels; the
    // engine must simulate each unique point once and share the result.
    let mut spec = tiny_spec();
    let mut twin = tiny_spec().groups.remove(0);
    twin.label = "tiny-twin".into();
    spec.groups.push(twin);

    let calls = AtomicUsize::new(0);
    let runner = |p: &PointSpec| {
        calls.fetch_add(1, Ordering::Relaxed);
        fake_result(p)
    };
    let r = run_campaign_with(&spec, &ExecOptions::default(), &runner).unwrap();
    assert_eq!(r.outcomes.len(), 16);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        8,
        "each unique point runs once"
    );
    assert_eq!(r.outcomes.iter().filter(|o| o.deduped).count(), 8);
    // Aggregation still sees both groups.
    let aggs = r.aggregates();
    assert_eq!(aggs.iter().filter(|a| a.group == "tiny").count(), 4);
    assert_eq!(aggs.iter().filter(|a| a.group == "tiny-twin").count(), 4);
}
