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
//! Options (all optional):
//!
//! * `--design NAME`  — one of `flit-bless`, `scarab`, `buffered4`,
//!   `buffered8`, `dxbar-dor`, `dxbar-wf`, `unified-dor`, `unified-wf`,
//!   `afc`, `damq`, `minbd` (default `dxbar-dor`);
//! * `--pattern NAME` — `uniform`, `nonuniform`, `bitrev`, `butterfly`,
//!   `complement`, `transpose`, `shuffle`, `neighbor`, `tornado`
//!   (default `uniform`);
//! * `--scenario NAME` — run a named workload scenario instead of a
//!   synthetic pattern (`mmpp_ur`, `pareto_ur`, `interfere2`,
//!   `mixed_islands`, `torus_ur`, `cmesh_ur`, optionally parameterized as
//!   `interfere2:2.5`); the summary gains a per-application block;
//! * `--load F`       — offered load as a fraction of capacity (default 0.3);
//! * `--out DIR`      — output directory (default `trace_out`);
//! * `--events N`     — ring-buffer capacity, 0 = keep everything
//!   (default 0);
//! * `--stride N`     — cycles between time-series samples (default 1);
//! * `--top N`        — slowest-packet table length (default 10);
//! * `--tile-threads N` — tiles the simulation is stepped in (also via
//!   `DXBAR_TILE_THREADS`): 0 and 1 step one tile inline, N > 1 steps N
//!   tiles on N workers — traced and `--verify` runs included. The event
//!   stream, the summary and the check counts are byte-identical at any
//!   setting.
//!
//! `DXBAR_QUICK=1` shrinks the simulated windows as for the figure bins.

use bench::noc_campaign::verify_from_env;
use bench::paper_config;
use dxbar_noc::noc_sim::diagnostics::NodeField;
use dxbar_noc::noc_sim::noc_trace::{chrome_trace_json, to_jsonl, RecordingSink};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run_synthetic_traced, run_synthetic_traced_verified, Design};
use std::fmt::Write as _;
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
    verify: bool,
}

/// Design spellings accepted by `--design`, for unknown-name errors.
const KNOWN_DESIGNS: &str = "flit-bless, scarab, buffered4, buffered8, dxbar-dor, \
     dxbar-wf, unified-dor, unified-wf, afc, damq, minbd";

/// Pattern spellings accepted by `--pattern`, for unknown-name errors.
const KNOWN_PATTERNS: &str = "uniform, nonuniform, bitrev, butterfly, complement, \
     transpose, shuffle, neighbor, tornado";

fn parse_design(s: &str) -> Option<Design> {
    Some(match s.to_ascii_lowercase().as_str() {
        "flit-bless" | "bless" => Design::FlitBless,
        "scarab" => Design::Scarab,
        "buffered4" => Design::Buffered4,
        "buffered8" => Design::Buffered8,
        "dxbar-dor" | "dxbar" => Design::DXbarDor,
        "dxbar-wf" => Design::DXbarWf,
        "unified-dor" | "unified" => Design::UnifiedDor,
        "unified-wf" => Design::UnifiedWf,
        "afc" => Design::Afc,
        "damq" => Design::Damq,
        "minbd" | "min-bd" => Design::MinBd,
        _ => return None,
    })
}

fn parse_pattern(s: &str) -> Option<Pattern> {
    Some(match s.to_ascii_lowercase().as_str() {
        "uniform" | "ur" => Pattern::UniformRandom,
        "nonuniform" | "nur" => Pattern::NonUniformRandom,
        "bitrev" | "bit-reversal" => Pattern::BitReversal,
        "butterfly" => Pattern::Butterfly,
        "complement" => Pattern::Complement,
        "transpose" => Pattern::MatrixTranspose,
        "shuffle" => Pattern::PerfectShuffle,
        "neighbor" => Pattern::Neighbor,
        "tornado" => Pattern::Tornado,
        _ => return None,
    })
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("trace_run: {msg}");
    eprintln!("see the module docs (src/bin/trace_run.rs) for the option list");
    exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        design: Design::DXbarDor,
        pattern: Pattern::UniformRandom,
        scenario: None,
        load: 0.3,
        out: PathBuf::from("trace_out"),
        events: 0,
        stride: 1,
        top: 10,
        verify: verify_from_env(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--design" => {
                let v = value("--design");
                opts.design = parse_design(&v).unwrap_or_else(|| {
                    usage_and_exit(&format!(
                        "unknown design '{v}'; known designs: {KNOWN_DESIGNS}"
                    ))
                });
            }
            "--pattern" => {
                let v = value("--pattern");
                opts.pattern = parse_pattern(&v).unwrap_or_else(|| {
                    usage_and_exit(&format!(
                        "unknown pattern '{v}'; known patterns: {KNOWN_PATTERNS}"
                    ))
                });
            }
            "--scenario" => opts.scenario = Some(value("--scenario")),
            "--load" => {
                let v = value("--load");
                opts.load = v
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit(&format!("bad load '{v}'")));
            }
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--events" => {
                let v = value("--events");
                opts.events = v
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit(&format!("bad event capacity '{v}'")));
            }
            "--stride" => {
                let v = value("--stride");
                opts.stride = v
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit(&format!("bad stride '{v}'")));
            }
            "--top" => {
                let v = value("--top");
                opts.top = v
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit(&format!("bad top count '{v}'")));
            }
            "--tile-threads" => {
                let v = value("--tile-threads");
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit(&format!("bad tile-thread count '{v}'")));
                std::env::set_var("DXBAR_TILE_THREADS", n.to_string());
            }
            "--verify" => opts.verify = true,
            other => usage_and_exit(&format!("unknown option '{other}'")),
        }
    }
    if let Ok(v) = std::env::var("DXBAR_TILE_THREADS") {
        if v.trim().parse::<usize>().is_err() {
            usage_and_exit(&format!("bad DXBAR_TILE_THREADS '{v}'"));
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let mut cfg = paper_config();
    let sink = RecordingSink::new(opts.events, opts.stride);

    // Resolve the scenario (when given) before announcing the run, so an
    // unknown name is a usage error with the known-names listing.
    let scenario = opts.scenario.as_ref().map(|name| {
        noc_scenario::ScenarioSpec::resolve(name, &cfg).unwrap_or_else(|e| usage_and_exit(&e))
    });
    if let Some(spec) = &scenario {
        cfg = noc_scenario::scenario_config(&cfg, spec);
    }

    eprintln!(
        "[trace_run] {} / {} @ load {:.2} on {}x{} mesh ...",
        opts.design.name(),
        scenario
            .as_ref()
            .map(|s| format!("scenario {}", s.name))
            .unwrap_or_else(|| format!("{:?}", opts.pattern)),
        opts.load,
        cfg.width,
        cfg.height
    );
    let (result, sink, verify_report) = match (&scenario, opts.verify) {
        (Some(spec), true) => {
            let (r, s, rep) = noc_scenario::run_scenario_traced_verified(
                opts.design,
                &cfg,
                spec,
                opts.load,
                sink,
            )
            .unwrap_or_else(|e| usage_and_exit(&e));
            (r, s, Some(rep))
        }
        (Some(spec), false) => {
            let (r, s) =
                noc_scenario::run_scenario_traced(opts.design, &cfg, spec, opts.load, sink)
                    .unwrap_or_else(|e| usage_and_exit(&e));
            (r, s, None)
        }
        (None, true) => {
            let (r, s, rep) =
                run_synthetic_traced_verified(opts.design, &cfg, opts.pattern, opts.load, sink);
            (r, s, Some(rep))
        }
        (None, false) => {
            let (r, s) = run_synthetic_traced(opts.design, &cfg, opts.pattern, opts.load, sink);
            (r, s, None)
        }
    };

    std::fs::create_dir_all(&opts.out).expect("create output dir");

    // 1. Raw event stream.
    let events: Vec<_> = sink.recorder.iter().cloned().collect();
    let jsonl_path = opts.out.join("events.jsonl");
    std::fs::write(&jsonl_path, to_jsonl(&events)).expect("write events.jsonl");

    // 2. Chrome trace (per-flit slices + instant events).
    let chrome_path = opts.out.join("chrome_trace.json");
    std::fs::write(&chrome_path, chrome_trace_json(&events)).expect("write chrome_trace.json");

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
        events.len(),
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
    if let Some(rep) = &verify_report {
        if !rep.is_clean() {
            eprintln!(
                "[trace_run] verification FAILED: {} violation(s)",
                rep.total_violations
            );
            exit(1);
        }
    }
}
