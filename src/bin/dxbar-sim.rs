//! `dxbar-sim` — command-line front end for one-off simulations.
//!
//! ```text
//! dxbar-sim --design dxbar-dor --pattern UR --load 0.4
//! dxbar-sim --design buffered8 --pattern MT --load 0.3 --mesh 4x4 --seed 7
//! dxbar-sim --design dxbar-wf --pattern UR --load 0.35 --faults 50
//! dxbar-sim --design dxbar-dor --splash ocean
//! dxbar-sim --list
//! ```
//!
//! Arguments parse through [`dxbar_noc::cli::Args`]; see `--help`. A run
//! whose measurement window offered flits and delivered none prints
//! `error: stalled: ...` and exits 1, with or without `--verify`.

use dxbar_noc::cli::Args;
use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::{run, Design, RunPlan, RunResult, SimConfig};

const HELP: &str = "\
dxbar-sim — cycle-accurate NoC simulation of the DXbar paper's designs

USAGE:
    dxbar-sim [OPTIONS]

OPTIONS:
    --design <NAME>     flit-bless | scarab | buffered4 | buffered8 |
                        dxbar-dor | dxbar-wf | unified-dor | unified-wf |
                        afc | damq | minbd
                        (default: dxbar-dor)
    --pattern <NAME>    UR NUR BR BF CP MT PS NB TOR, or spelled out:
                        uniform nonuniform bitrev butterfly complement
                        transpose shuffle neighbor tornado   (default: UR)
    --load <FRACTION>   offered load, fraction of capacity (default: 0.4)
    --splash <APP>      closed-loop workload instead of a pattern:
                        fft lu radiosity ocean raytrace radix water fmm barnes
    --mesh <WxH>        mesh dimensions (default: 8x8)
    --cycles <N>        measurement window in cycles (default: 30000)
    --warmup <N>        warmup cycles (default: 10000)
    --seed <N>          PRNG seed (default: paper seed)
    --faults <PERCENT>  fraction of routers with one broken crossbar, failing
                        in the second half of warmup (from cycle 0 under
                        --splash, which has none; DXbar designs only;
                        default: 0)
    --tile-threads <N>  tiles the simulation is stepped in (0 and 1: one tile,
                        inline; N: N tile workers, --verify runs included;
                        results are bit-identical at any setting; also via
                        DXBAR_TILE_THREADS)
    --json              print the full RunResult as JSON
    --verify            attach the runtime-oracle suite (flit conservation,
                        crossbar exclusivity, route legality, FIFO bounds,
                        fairness, deadlock watchdog); exits 1 on any
                        violation (also enabled by DXBAR_VERIFY=1)
    --list              list designs, patterns and apps, then exit
    --help              this text
";

/// The `--design` spellings, canonical form of each.
fn known_designs() -> String {
    Design::ALL.map(|d| d.spellings()[0]).join(" ")
}

fn known_patterns() -> String {
    Pattern::ALL.map(Pattern::abbrev).join(" ")
}

fn known_apps() -> String {
    SplashApp::ALL
        .map(SplashApp::name)
        .join(" ")
        .to_ascii_lowercase()
}

fn parse_app(s: &str) -> Option<SplashApp> {
    SplashApp::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(s))
}

struct Options {
    design: Design,
    pattern: Pattern,
    splash: Option<SplashApp>,
    load: f64,
    cfg: SimConfig,
    fault_pct: f64,
    tile_threads: Option<usize>,
    json: bool,
    verify: bool,
}

fn parse_args() -> (Args, Options) {
    let mut args = Args::new(HELP, HELP);
    let mut opts = Options {
        design: Design::DXbarDor,
        pattern: Pattern::UniformRandom,
        splash: None,
        load: 0.4,
        cfg: SimConfig::default(),
        fault_pct: 0.0,
        tile_threads: None,
        json: false,
        verify: dxbar_noc::noc_verify::verify_from_env(),
    };
    let mut tile_threads = None;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--list" => {
                println!("designs : {}", known_designs());
                println!("patterns: {}", known_patterns());
                println!("apps    : {}", known_apps());
                std::process::exit(0);
            }
            "--design" => {
                let v = args.value("--design");
                opts.design = Design::parse(&v).unwrap_or_else(|| {
                    args.fail(&format!(
                        "unknown design '{v}'; known designs: {}",
                        known_designs()
                    ))
                });
            }
            "--pattern" => {
                let v = args.value("--pattern");
                opts.pattern = Pattern::parse(&v).unwrap_or_else(|| {
                    args.fail(&format!(
                        "unknown pattern '{v}'; known patterns: {}",
                        known_patterns()
                    ))
                });
            }
            "--splash" => {
                let v = args.value("--splash");
                opts.splash = Some(parse_app(&v).unwrap_or_else(|| {
                    args.fail(&format!("unknown app '{v}'; known apps: {}", known_apps()))
                }));
            }
            "--load" => opts.load = args.parsed("--load", "a fraction of capacity"),
            "--mesh" => {
                let v = args.value("--mesh");
                let (w, h) = v
                    .split_once('x')
                    .unwrap_or_else(|| args.fail(&format!("mesh must look like 8x8, got '{v}'")));
                opts.cfg.width = w.parse().unwrap_or_else(|_| args.fail("bad mesh width"));
                opts.cfg.height = h.parse().unwrap_or_else(|_| args.fail("bad mesh height"));
            }
            "--cycles" => opts.cfg.measure_cycles = args.parsed("--cycles", "a cycle count"),
            "--warmup" => opts.cfg.warmup_cycles = args.parsed("--warmup", "a cycle count"),
            "--seed" => opts.cfg.seed = args.parsed("--seed", "an integer seed"),
            "--faults" => {
                let v: f64 = args.parsed("--faults", "a percentage");
                if !(0.0..=100.0).contains(&v) {
                    args.fail("faults must be a percentage in [0, 100]");
                }
                opts.fault_pct = v / 100.0;
            }
            "--tile-threads" => tile_threads = Some(args.value("--tile-threads")),
            "--json" => opts.json = true,
            "--verify" => opts.verify = true,
            other => args.fail(&format!("unknown option '{other}'")),
        }
    }
    opts.tile_threads = args.tile_threads(tile_threads);
    (args, opts)
}

fn print_human(r: &RunResult) {
    println!("design            {}", r.design);
    println!("traffic           {}", r.traffic);
    if let Some(l) = r.offered_load {
        println!("offered load      {l:.3} of capacity");
    }
    println!(
        "accepted load     {:.3} of capacity ({:.4} flits/node/cycle)",
        r.accepted_fraction, r.accepted_rate
    );
    println!("packets delivered {}", r.accepted_packets);
    println!("avg pkt latency   {:.1} cycles", r.avg_packet_latency);
    println!("avg flit latency  {:.1} cycles", r.avg_flit_latency);
    println!("energy per packet {:.3} nJ", r.avg_packet_energy_nj);
    println!(
        "energy breakdown  xbar {:.1} uJ | link {:.1} uJ | buffer {:.1} uJ | nack {:.1} uJ",
        r.energy.crossbar_pj / 1e6,
        r.energy.link_pj / 1e6,
        r.energy.buffer_pj / 1e6,
        r.energy.nack_pj / 1e6
    );
    if r.deflections_per_packet > 0.0 {
        println!("deflections/pkt   {:.2}", r.deflections_per_packet);
    }
    if r.drops_per_packet > 0.0 {
        println!("drops/pkt         {:.2}", r.drops_per_packet);
    }
    if r.buffered_fraction > 0.0 {
        println!("buffered fraction {:.3}", r.buffered_fraction);
    }
    if let Some(fin) = r.finish_cycle {
        println!(
            "execution time    {fin} cycles (completed: {})",
            r.completed
        );
    }
}

fn main() {
    let (args, opts) = parse_args();
    let mut plan = match opts.splash {
        Some(app) => RunPlan::splash(opts.design, &opts.cfg, app, 10_000_000),
        None => RunPlan::synthetic(opts.design, &opts.cfg, opts.pattern, opts.load),
    };
    plan.tile_threads = opts.tile_threads;
    // The fault generator places faults on the fabric the config describes.
    if let Err(e) = opts.cfg.validate() {
        args.fail(&e);
    }
    // A zero fraction generates the empty plan. Faults manifest in the
    // second half of warmup; a closed-loop run has none, so there they are
    // present from the first cycle.
    let warmup = opts.splash.map_or(opts.cfg.warmup_cycles, |_| 0);
    let faults = ResiliencePlan::none().with_crossbar(FaultPlan::generate(
        &Mesh::for_config(&opts.cfg),
        opts.fault_pct,
        warmup / 2,
        warmup.max(1),
        opts.cfg.seed,
    ));
    let plan = plan.faults(&faults).verified(opts.verify);
    if let Err(e) = plan.validate() {
        args.fail(&e);
    }
    let (result, violated) = match run(plan).clean() {
        Ok(out) => {
            if let Some(report) = out.verify {
                eprintln!("verification: clean ({})", report.summary());
            }
            (out.result, false)
        }
        Err(e) => {
            eprintln!("verification FAILED: {e}");
            (e.result, true)
        }
    };

    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serialize result")
        );
    } else {
        print_human(&result);
    }
    let stall = result.stall_reason();
    if let Some(reason) = &stall {
        eprintln!("error: {reason}");
    }
    if violated || stall.is_some() {
        std::process::exit(1);
    }
}
