//! chaos_soak: the end-to-end robustness gate for the campaign stack.
//!
//! Runs a small, verify-enabled campaign grid under a sweep of seeded
//! storage-chaos plans (`noc-chaos`) — transient `EIO`/`ENOSPC`, torn
//! writes, bit-flipped cache records, delayed claims — plus a phase that
//! kills a cooperating process while it holds a point's advisory claim.
//! The run passes only if every chaos/resume/crash run renders an
//! aggregate table **byte-identical** to the fault-free baseline, with
//! zero oracle violations, nothing quarantined, and every injected fault
//! accounted for (retried or detected, never silently dropped).
//!
//! ```text
//! chaos_soak [options]
//!
//!   --seeds N        number of chaos seeds to sweep (default 3)
//!   --base-seed S    first chaos seed; the sweep uses S, S+1, ... (default 1)
//!   --quick          smaller grid (2 designs x 1 load x 2 sim seeds);
//!                    DXBAR_QUICK=1 does the same
//!   --jobs N         worker threads per campaign run (default 2)
//!   --cache-root DIR scratch parent for the per-seed caches
//!                    (default: a fresh directory under the temp dir)
//!   --no-claim-kill  skip the claim-holder-kill phase
//!   --out FILE       also write the JSON report here
//!
//!   --hold-claim CACHE KEY MS
//!                    internal child mode used by the claim-kill phase:
//!                    claim KEY in CACHE and hold it for MS milliseconds
//!                    (the parent kills the process long before that)
//! ```
//!
//! The JSON [`SoakReport`] goes to stdout; exit status is nonzero when
//! the soak fails. CI greps the report for `"byte_identical": true` and
//! `"violations": 0`.
//!
//! [`SoakReport`]: noc_chaos::SoakReport

use dxbar_noc::cli::Args as Cli;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, SimConfig};
use noc_campaign::{CacheLocks, CampaignSpec, Claim, PointGroup, WorkloadAxis};
use noc_chaos::{run_soak, SoakOptions};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

struct Args {
    seeds: u64,
    base_seed: u64,
    quick: bool,
    jobs: usize,
    cache_root: Option<PathBuf>,
    claim_kill: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: chaos_soak [--seeds N] [--base-seed S] [--quick] [--jobs N] \
     [--cache-root DIR] [--no-claim-kill] [--out FILE]";

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        seeds: 3,
        base_seed: 1,
        quick: bench::quick_mode(),
        jobs: 2,
        cache_root: None,
        claim_kill: true,
        out: None,
    };
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--seeds" => args.seeds = cli.parsed("--seeds", "a positive integer"),
            "--base-seed" => args.base_seed = cli.parsed("--base-seed", "an integer"),
            "--quick" => args.quick = true,
            "--jobs" => args.jobs = cli.parsed("--jobs", "a positive integer"),
            "--cache-root" => args.cache_root = Some(PathBuf::from(cli.value("--cache-root"))),
            "--no-claim-kill" => args.claim_kill = false,
            "--out" => args.out = Some(PathBuf::from(cli.value("--out"))),
            "--hold-claim" => {
                let cache = PathBuf::from(cli.value("--hold-claim"));
                let key = cli.value("--hold-claim");
                let ms = cli.parsed("--hold-claim", "CACHE KEY MS, MS an integer");
                hold_claim(&cache, &key, ms);
            }
            flag => cli.fail(&format!("unknown option {flag}")),
        }
    }
    if args.seeds == 0 {
        cli.fail("--seeds must be >= 1");
    }
    args
}

/// Child mode for the claim-kill phase: take the advisory claim on `key`
/// and sit on it. The parent kills this process mid-hold; the OS then
/// releases the lock, which is exactly the crash the soak is probing.
fn hold_claim(cache: &Path, key: &str, ms: u64) -> ! {
    let locks = CacheLocks::open(cache).unwrap_or_else(|e| {
        eprintln!("hold-claim: cannot open lock dir {}: {e}", cache.display());
        exit(2);
    });
    let deadline = Instant::now() + Duration::from_millis(ms);
    loop {
        match locks.try_claim(key) {
            Claim::Owned(_claim) => {
                while Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(10));
                }
                exit(0);
            }
            Claim::Busy => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The soak grid. Small on purpose: chaos multiplies each spec into a
/// baseline run plus two runs per seed, and the gate is about storage
/// behaviour, not simulator coverage.
fn spec(quick: bool) -> CampaignSpec {
    let (designs, loads) = if quick {
        (vec![Design::DXbarDor, Design::FlitBless], vec![0.2])
    } else {
        (
            vec![Design::DXbarDor, Design::UnifiedWf, Design::FlitBless],
            vec![0.15, 0.3],
        )
    };
    CampaignSpec::new("chaos-soak").with_group(PointGroup {
        label: "chaos-soak".into(),
        config: SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 50,
            measure_cycles: 200,
            drain_cycles: 100,
            ..SimConfig::default()
        },
        designs,
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads,
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![1, 2],
        tag: None,
    })
}

fn main() {
    let mut cli = Cli::new(USAGE, USAGE);
    let args = parse_args(&mut cli);
    let cache_root = args.cache_root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("noc-chaos-soak-{}", std::process::id()))
    });

    let claim_holder = args.claim_kill.then(|| {
        let exe = std::env::current_exe().expect("own executable path");
        Box::new(move |cache: &Path, key: &str, ms: u64| {
            std::process::Command::new(&exe)
                .arg("--hold-claim")
                .arg(cache)
                .arg(key)
                .arg(ms.to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
        }) as noc_chaos::ClaimHolderSpawn
    });

    let opts = SoakOptions {
        spec: spec(args.quick),
        seeds: (0..args.seeds).map(|i| args.base_seed + i).collect(),
        verify: true,
        cache_root: cache_root.clone(),
        jobs: Some(args.jobs),
        progress: true,
        claim_holder,
    };

    let report = run_soak(&opts).unwrap_or_else(|e| {
        eprintln!("chaos_soak: harness error: {e}");
        exit(2);
    });

    let json = report.to_json();
    println!("{json}");
    if let Some(out) = &args.out {
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| cli.fail(&format!("cannot create {}: {e}", parent.display())));
        }
        std::fs::write(out, &json)
            .unwrap_or_else(|e| cli.fail(&format!("cannot write {}: {e}", out.display())));
        eprintln!("wrote {}", out.display());
    }

    for run in &report.runs {
        eprintln!(
            "seed {:#x}: chaos {} resume {} violations {} quarantined {} \
             injected {{ errors {} torn {} bitflips {} delays {} }} unresolved {}",
            run.seed,
            if run.byte_identical { "ok" } else { "DIVERGED" },
            if run.resume_byte_identical {
                "ok"
            } else {
                "DIVERGED"
            },
            run.violations,
            run.quarantined,
            run.injections.errors,
            run.injections.torn,
            run.injections.bitflips,
            run.injections.claim_delays,
            run.unresolved.len(),
        );
        for u in &run.unresolved {
            eprintln!("  UNRESOLVED {u}");
        }
    }
    if let Some(ck) = &report.claim_kill {
        eprintln!(
            "claim-kill: {} on {} ({} ms, violations {})",
            if ck.byte_identical { "ok" } else { "DIVERGED" },
            ck.key,
            ck.wall_ms,
            ck.violations
        );
    }

    if report.ok() {
        eprintln!(
            "chaos soak passed: {} seed(s), byte-identical aggregates, 0 violations",
            report.runs.len()
        );
        let _ = std::fs::remove_dir_all(&cache_root);
    } else {
        eprintln!(
            "chaos soak FAILED (caches kept at {})",
            cache_root.display()
        );
        exit(1);
    }
}
