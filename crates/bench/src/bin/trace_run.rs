//! Traced simulation run: record the full per-flit event stream of one
//! open-loop synthetic experiment and write it out as JSONL, as a Chrome
//! trace (load `chrome_trace.json` in Perfetto / `chrome://tracing`), and
//! as a human-readable text summary.
//!
//! ```text
//! cargo run --release -p bench --bin trace_run -- \
//!     --design dxbar-dor --pattern uniform --load 0.3 --out trace_out
//! ```
//!
//! `trace_run --help` lists the options. `DXBAR_QUICK=1` shrinks the
//! simulated windows as for `fig`. The outputs are written either way; a
//! run whose measurement window offered flits and delivered none then
//! prints `error: stalled: ...` and exits 1, with or without `--verify`.

use bench::noc_campaign::verify_from_env;
use bench::paper_config;
use dxbar_noc::cli::Args;
use dxbar_noc::noc_sim::diagnostics::NodeField;
use dxbar_noc::noc_sim::noc_trace::{chrome_trace_json, write_jsonl, RecordingSink, SLOWEST_KEPT};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan};
use noc_scenario::{ScenarioRun, ScenarioSpec};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::process::exit;

struct Options {
    design: Design,
    pattern: Pattern,
    scenario: Option<String>,
    load: f64,
    out: PathBuf,
    events: usize,
    stride: u64,
    top: usize,
    tile_threads: Option<usize>,
    verify: bool,
}

const HELP: &str = "\
trace_run — record one open-loop run as events.jsonl, chrome_trace.json and summary.txt

OPTIONS (all optional):
    --design <NAME>     flit-bless | scarab | buffered4 | buffered8 | dxbar-dor |
                        dxbar-wf | unified-dor | unified-wf | afc | damq | minbd
                        (default: dxbar-dor)
    --pattern <NAME>    uniform nonuniform bitrev butterfly complement transpose
                        shuffle neighbor tornado, or the paper's abbreviations
                        UR NUR BR BF CP MT PS NB TOR   (default: uniform)
    --scenario <NAME>   a named workload scenario instead of a pattern (mmpp_ur,
                        pareto_ur, interfere2, mixed_islands, torus_ur, cmesh_ur,
                        optionally parameterized as interfere2:2.5); the summary
                        gains a per-application block
    --load <FRACTION>   offered load, fraction of capacity (default: 0.3)
    --out <DIR>         output directory (default: trace_out)
    --events <N>        ring-buffer capacity, 0 = keep everything (default: 0)
    --stride <N>        cycles between time-series samples (default: 1)
    --top <N>           slowest-flit table length, at most 64 (default: 10)
    --tile-threads <N>  tiles the simulation is stepped in (0 and 1: one tile,
                        inline; N: N tile workers, --verify runs included; the
                        event stream, the summary and the check counts are
                        byte-identical at any setting; also via DXBAR_TILE_THREADS)
    --verify            attach the runtime-oracle suite; exits 1 on any violation
                        (also enabled by DXBAR_VERIFY=1)
    --help              this text
";

fn parse_args(args: &mut Args) -> Options {
    let mut opts = Options {
        design: Design::DXbarDor,
        pattern: Pattern::UniformRandom,
        scenario: None,
        load: 0.3,
        out: PathBuf::from("trace_out"),
        events: 0,
        stride: 1,
        top: 10,
        tile_threads: None,
        verify: verify_from_env(),
    };
    let mut tile_threads = None;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--design" => {
                let v = args.value("--design");
                opts.design = Design::parse(&v).unwrap_or_else(|| {
                    args.fail(&format!(
                        "unknown design '{v}'; known designs: {}",
                        Design::ALL.map(|d| d.spellings()[0]).join(", ")
                    ))
                });
            }
            "--pattern" => {
                let v = args.value("--pattern");
                opts.pattern = Pattern::parse(&v).unwrap_or_else(|| {
                    args.fail(&format!(
                        "unknown pattern '{v}'; known patterns: {}",
                        Pattern::ALL.map(Pattern::long_name).join(", ")
                    ))
                });
            }
            "--scenario" => opts.scenario = Some(args.value("--scenario")),
            "--load" => opts.load = args.parsed("--load", "a fraction of capacity"),
            "--out" => opts.out = PathBuf::from(args.value("--out")),
            "--events" => opts.events = args.parsed("--events", "an event capacity"),
            "--stride" => opts.stride = args.parsed("--stride", "a cycle count"),
            "--top" => {
                opts.top = args.parsed("--top", "a table length");
                if opts.top > SLOWEST_KEPT {
                    args.fail(&format!(
                        "--top {} is past the {SLOWEST_KEPT} slowest flits a run keeps",
                        opts.top
                    ));
                }
            }
            "--tile-threads" => tile_threads = Some(args.value("--tile-threads")),
            "--verify" => opts.verify = true,
            other => args.fail(&format!("unknown option '{other}'")),
        }
    }
    opts.tile_threads = args.tile_threads(tile_threads);
    opts
}

fn main() {
    let mut args = Args::new(HELP.trim_end(), "see trace_run --help for the option list");
    let opts = parse_args(&mut args);
    let mut cfg = paper_config();
    let sink = RecordingSink::new(opts.events, opts.stride);

    // Resolve the scenario (when given) before announcing the run, so an
    // unknown name is a usage error with the known-names listing.
    let spec = opts
        .scenario
        .as_ref()
        .map(|name| ScenarioSpec::resolve(name, &cfg).unwrap_or_else(|e| args.fail(&e)));
    if let Some(spec) = &spec {
        cfg = noc_scenario::scenario_config(&cfg, spec);
    }
    let scenario = spec.as_ref().map(|spec| {
        ScenarioRun::new(opts.design, &cfg, spec, opts.load).unwrap_or_else(|e| args.fail(&e))
    });
    if scenario.is_none() {
        if let Err(e) = opts.pattern.check(&Mesh::for_config(&cfg)) {
            args.fail(&e);
        }
    }

    eprintln!(
        "[trace_run] {} / {} @ load {:.2} on {}x{} mesh ...",
        opts.design.name(),
        spec.as_ref()
            .map(|s| format!("scenario {}", s.name))
            .unwrap_or_else(|| format!("{:?}", opts.pattern)),
        opts.load,
        cfg.width,
        cfg.height
    );
    let exec = |mut plan: RunPlan<'_>| {
        plan.tile_threads = opts.tile_threads;
        run(plan.traced(sink).verified(opts.verify))
    };
    let out = match scenario {
        Some(scenario) => scenario.run_with(exec),
        None => exec(RunPlan::synthetic(
            opts.design,
            &cfg,
            opts.pattern,
            opts.load,
        )),
    };
    let (result, sink, verify_report) = (out.result, out.trace.expect("traced plan"), out.verify);

    std::fs::create_dir_all(&opts.out).expect("create output dir");

    // 1. Raw event stream.
    let jsonl_path = opts.out.join("events.jsonl");
    let mut jsonl = BufWriter::new(File::create(&jsonl_path).expect("create events.jsonl"));
    write_jsonl(&mut jsonl, sink.recorder.iter()).expect("write events.jsonl");
    jsonl.flush().expect("write events.jsonl");

    // 2. Chrome trace (per-flit slices + instant events).
    let chrome_path = opts.out.join("chrome_trace.json");
    std::fs::write(&chrome_path, chrome_trace_json(sink.recorder.iter()))
        .expect("write chrome_trace.json");

    // 3. Text summary.
    let mut text = String::new();
    let s = sink.lifetimes.summary();
    let _ = writeln!(
        text,
        "TRACED RUN — {} / {} @ offered load {:.2}",
        result.design, result.traffic, opts.load
    );
    let _ = writeln!(
        text,
        "accepted rate {:.4} flits/node/cycle ({:.3} of capacity), avg packet latency {:.1} cycles",
        result.accepted_rate, result.accepted_fraction, result.avg_packet_latency
    );
    for a in &result.apps {
        let _ = writeln!(
            text,
            "app {:<8} [{}] {:>3} srcs: offered {} accepted {} ({:.4}/node/cycle), avg latency {:.1} cycles",
            a.name,
            a.traffic,
            a.src_nodes,
            a.offered_packets,
            a.accepted_packets,
            a.accepted_rate,
            a.avg_packet_latency
        );
    }
    let _ = writeln!(
        text,
        "events recorded: {} (of {} seen{})",
        sink.recorder.len(),
        sink.recorder.total_seen(),
        if sink.recorder.overflowed() {
            ", ring overflowed — oldest events evicted"
        } else {
            ""
        }
    );
    let _ = writeln!(
        text,
        "flits: injected {} / ejected {} / dropped {} / still in flight {}",
        s.injected, s.ejected, s.dropped, s.in_flight
    );
    let _ = writeln!(
        text,
        "network latency (inject->eject): mean {:.1}, p50 {}, p90 {}, p99 {}, max {}",
        s.mean_latency, s.p50, s.p90, s.p99, s.max_latency
    );
    let _ = writeln!(
        text,
        "mean link utilization: {:.2} traversals/cycle over {} cycles",
        sink.series.mean_link_utilization(),
        sink.series.observed
    );

    let _ = writeln!(
        text,
        "\n== top {} slowest flits (by total latency incl. source queueing) ==",
        opts.top
    );
    let _ = writeln!(
        text,
        "{:>12} {:>4} {:>5} {:>5} {:>9} {:>9} {:>8} {:>9}",
        "packet", "flit", "src", "end", "injected", "finished", "net lat", "total lat"
    );
    for l in sink.lifetimes.top_slowest(opts.top) {
        let _ = writeln!(
            text,
            "{:>12} {:>4} {:>5} {:>5} {:>9} {:>9} {:>8} {:>9}",
            l.packet,
            l.flit_index,
            l.src,
            l.end_node,
            l.injected,
            l.finished,
            l.network_latency(),
            l.reported_latency
        );
    }

    // Heatmap: time-averaged buffer occupancy per router.
    let mesh = Mesh::for_config(&cfg);
    let mut field = NodeField::new("time-averaged router occupancy (flits)", &mesh);
    let mean_occ = sink.series.mean_node_occupancy();
    for (slot, v) in field.values.iter_mut().zip(&mean_occ) {
        *slot = *v;
    }
    let _ = writeln!(text, "\n{}", field.render());

    for series in [
        &sink.series.in_flight,
        &sink.series.backlog,
        &sink.series.link_util,
        &sink.series.mean_occupancy,
    ] {
        let _ = writeln!(
            text,
            "series {:<28} samples {:>6}  mean {:>8.2}  max {:>8.2}",
            series.label,
            series.len(),
            series.mean(),
            series.max()
        );
    }

    if let Some(rep) = &verify_report {
        let _ = writeln!(text, "\n== runtime verification ==\n{}", rep.summary());
        for v in &rep.violations {
            let _ = writeln!(text, "  {v}");
        }
    }

    let summary_path = opts.out.join("summary.txt");
    std::fs::write(&summary_path, &text).expect("write summary.txt");
    print!("{text}");
    eprintln!(
        "[trace_run] wrote {}, {} and {}",
        jsonl_path.display(),
        chrome_path.display(),
        summary_path.display()
    );
    let violated = verify_report.as_ref().is_some_and(|rep| !rep.is_clean());
    if violated {
        eprintln!(
            "[trace_run] verification FAILED: {} violation(s)",
            verify_report.map_or(0, |rep| rep.total_violations)
        );
    }
    let stall = result.stall_reason();
    if let Some(reason) = &stall {
        eprintln!("error: {reason}");
    }
    if violated || stall.is_some() {
        exit(1);
    }
}
