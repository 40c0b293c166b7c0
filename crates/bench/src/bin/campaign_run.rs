//! Generic campaign driver: run any experiment campaign from a JSON spec
//! file or a built-in preset, with caching, replication and provenance.
//!
//! ```text
//! campaign_run [SPEC.json] [options]
//!
//!   SPEC.json             campaign spec file (see EXPERIMENTS.md)
//!   --preset NAME         use a built-in spec instead of a file
//!                         (`campaign_run --help` lists the names)
//!   --seeds N             replace every group's seeds with N derived
//!                         replicate seeds (mean ± 95% CI aggregation)
//!   --cache DIR           result-cache directory (default: $DXBAR_CACHE)
//!   --jobs N              worker threads (default: $DXBAR_JOBS, then all
//!                         cores)
//!   --tile-threads N      tiles each simulation is stepped in (0 and 1:
//!                         one tile, inline; N: N tile workers, also for
//!                         verified and resilient points; results are
//!                         bit-identical; also via $DXBAR_TILE_THREADS).
//!                         The campaign executor divides the --jobs budget
//!                         by this count so jobs x tile-threads stays
//!                         within the machine budget.
//!   --manifest PATH       write the provenance manifest JSON here
//!   --emit-spec PATH      write the resolved spec JSON and exit
//!   --verify              run every point under the runtime-oracle suite
//!                         (also enabled by DXBAR_VERIFY=1); results land
//!                         in a disjoint +verify cache namespace
//!   --coop                claim points through advisory file locks in the
//!                         cache directory so several campaign_run (or
//!                         noc-daemon) processes shard one sweep without
//!                         duplicate simulation (requires --cache)
//!
//! Exits 0 when every point completed (and, with --verify, no invariant
//! was violated), 1 when any point failed or violated an invariant, 2 on
//! usage errors.
//! ```

use bench::{campaign_options, derive_seeds};
use dxbar_noc::cli::Args as Cli;
use noc_campaign::{run_campaign, CampaignSpec};
use std::path::PathBuf;
use std::process::exit;

struct Args {
    spec_file: Option<PathBuf>,
    preset: Option<String>,
    seeds: Option<usize>,
    cache: Option<PathBuf>,
    jobs: Option<usize>,
    manifest: Option<PathBuf>,
    emit_spec: Option<PathBuf>,
    verify: bool,
    coop: bool,
}

fn parse_args(cli: &mut Cli) -> Args {
    let mut args = Args {
        spec_file: None,
        preset: None,
        seeds: None,
        cache: None,
        jobs: None,
        manifest: None,
        emit_spec: None,
        verify: false,
        coop: false,
    };
    let mut tile_threads = None;
    while let Some(a) = cli.next_arg() {
        match a.as_str() {
            "--preset" => args.preset = Some(cli.value("--preset")),
            "--seeds" => args.seeds = Some(cli.parsed("--seeds", "a positive integer")),
            "--cache" => args.cache = Some(PathBuf::from(cli.value("--cache"))),
            "--jobs" => args.jobs = Some(cli.parsed("--jobs", "a positive integer")),
            "--tile-threads" => tile_threads = Some(cli.value("--tile-threads")),
            "--manifest" => args.manifest = Some(PathBuf::from(cli.value("--manifest"))),
            "--emit-spec" => args.emit_spec = Some(PathBuf::from(cli.value("--emit-spec"))),
            "--verify" => args.verify = true,
            "--coop" => args.coop = true,
            flag if flag.starts_with("--") => cli.fail(&format!("unknown option {flag}")),
            file => {
                if args.spec_file.replace(PathBuf::from(file)).is_some() {
                    cli.fail("more than one spec file given");
                }
            }
        }
    }
    // The executor divides its job budget by the variable, so that is
    // where the flag's count goes.
    if let Some(n) = cli.tile_threads(tile_threads) {
        std::env::set_var("DXBAR_TILE_THREADS", n.to_string());
    }
    args
}

fn load_spec(cli: &Cli, args: &Args) -> CampaignSpec {
    match (&args.spec_file, &args.preset) {
        (Some(_), Some(_)) => cli.fail("give either a spec file or --preset, not both"),
        (None, None) => cli.fail("need a spec file or --preset"),
        (Some(file), None) => {
            let text = std::fs::read_to_string(file)
                .unwrap_or_else(|e| cli.fail(&format!("cannot read {}: {e}", file.display())));
            CampaignSpec::from_json(&text).unwrap_or_else(|e| {
                let e = e.to_string();
                if let Some(hint) = bench::unknown_design_hint(&e) {
                    eprintln!("{hint}");
                }
                cli.fail(&format!("bad spec {}: {e}", file.display()))
            })
        }
        (None, Some(name)) => bench::specs::preset(name)
            .unwrap_or_else(|| cli.fail(&format!("unknown preset {name:?}"))),
    }
}

fn main() {
    let usage = format!(
        "usage: campaign_run [SPEC.json] [--preset NAME] [--seeds N] [--cache DIR] \
         [--jobs N] [--tile-threads N] [--manifest PATH] [--emit-spec PATH] [--verify] \
         [--coop]\npresets: {}",
        bench::specs::PRESETS.join(", ")
    );
    let mut cli = Cli::new(&usage, &usage);
    let args = parse_args(&mut cli);
    let mut spec = load_spec(&cli, &args);
    if let Some(n) = args.seeds {
        if n == 0 {
            cli.fail("--seeds must be >= 1");
        }
        let seeds = derive_seeds(n);
        for g in &mut spec.groups {
            g.seeds = seeds.clone();
        }
    }
    if let Some(path) = &args.emit_spec {
        std::fs::write(path, spec.to_json())
            .unwrap_or_else(|e| cli.fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!("wrote resolved spec to {}", path.display());
        return;
    }

    let mut opts = campaign_options();
    if let Some(dir) = &args.cache {
        opts.cache_dir = Some(dir.clone());
    }
    if let Some(jobs) = args.jobs {
        opts.jobs = Some(jobs);
    }
    if args.verify {
        opts.verify = true;
    }
    if args.coop {
        if opts.cache_dir.is_none() {
            cli.fail("--coop requires --cache (or DXBAR_CACHE)");
        }
        opts.cooperative = true;
    }
    let report = match run_campaign(&spec, &opts) {
        Ok(r) => r,
        Err(e) => cli.fail(&format!("invalid campaign: {e}")),
    };

    if let Some(path) = &args.manifest {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("create {}: {e}", parent.display()));
        }
        std::fs::write(path, report.manifest().to_json())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote manifest to {}", path.display());
    }

    // Aggregated one-line summary per point group (mean ± CI when n > 1).
    print!("{}", noc_campaign::render_table(&report.aggregates()));

    if report.failed_count() > 0 {
        eprintln!(
            "{}/{} points failed",
            report.failed_count(),
            report.outcomes.len()
        );
        exit(1);
    }
    if report.total_violations() > 0 {
        eprintln!(
            "{} invariant violation(s) under verification",
            report.total_violations()
        );
        exit(1);
    }
}
