//! Per-flit lifecycle tracing: run one small DXbar experiment with a
//! recording trace sink attached, then dissect the event stream — the
//! aggregate lifetime summary, the slowest individual packets, and a
//! JSONL/Chrome export you can load into Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`.
//!
//! ```text
//! cargo run --release --example trace_lifetimes
//! ```
//!
//! For a full CLI around the same machinery (design/pattern/load/output
//! knobs), use `cargo run --release -p bench --bin trace_run`.

use dxbar_noc::noc_sim::noc_trace::{chrome_trace_json, to_jsonl, RecordingSink};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};
use std::fs;

fn main() {
    // A short 4x4 run keeps the event stream small enough to read whole.
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 200,
        measure_cycles: 1_000,
        drain_cycles: 500,
        ..SimConfig::default()
    };

    // capacity 0 = unbounded ring (keep every event); sample every cycle.
    let sink = RecordingSink::new(0, 1);
    let plan = RunPlan::synthetic(Design::DXbarDor, &cfg, Pattern::UniformRandom, 0.35);
    let out = run(plan.traced(sink));
    let (result, sink) = (out.result, out.trace.expect("traced plan"));

    println!(
        "DXbar (DOR), uniform random @ 0.35 offered load: avg packet latency {:.1} cycles, \
         accepted {:.3} flits/node/cycle\n",
        result.avg_packet_latency, result.accepted_rate
    );

    // 1. Aggregate lifetime view: conservation + exact latency percentiles.
    let s = sink.lifetimes.summary();
    println!(
        "flits: {} injected = {} ejected + {} dropped + {} in flight",
        s.injected, s.ejected, s.dropped, s.in_flight
    );
    println!(
        "latency (incl. source queueing): mean {:.1}, p50 {}, p90 {}, p99 {}, max {}\n",
        s.mean_latency, s.p50, s.p90, s.p99, s.max_latency
    );

    // 2. The individual packets that fared worst.
    println!("slowest flits:");
    println!("  packet  src -> end   injected  finished  net lat  total lat");
    for l in sink.lifetimes.top_slowest(5) {
        println!(
            "  {:>6}  {:>3} -> {:>3}   {:>8}  {:>8}  {:>7}  {:>9}",
            l.packet,
            l.src,
            l.end_node,
            l.injected,
            l.finished,
            l.network_latency(),
            l.reported_latency
        );
    }

    // 3. What the event stream itself looks like: replay one flit's life.
    if let Some(worst) = sink.lifetimes.top_slowest(1).first() {
        println!("\nevent-by-event life of packet {}:", worst.packet);
        for ev in sink.recorder.iter().filter(|e| {
            e.packet().map(|p| p.0) == Some(worst.packet)
                && e.flit_index() == Some(worst.flit_index)
        }) {
            println!("  {ev:?}");
        }
    }

    // 4. Per-cycle time series sampled alongside the events.
    println!(
        "\nnetwork occupancy: mean {:.2} flits buffered/node, {:.1} link traversals/cycle",
        sink.series.mean_node_occupancy().iter().sum::<f64>()
            / cfg.width as f64
            / cfg.height as f64,
        sink.series.mean_link_utilization()
    );

    // 5. Exports: JSONL for ad-hoc analysis, Chrome trace for Perfetto.
    let events = sink.recorder.iter();
    fs::write("trace_lifetimes.jsonl", to_jsonl(events.clone())).expect("write jsonl");
    fs::write("trace_lifetimes_chrome.json", chrome_trace_json(events)).expect("write chrome");
    println!(
        "\nwrote {} events to trace_lifetimes.jsonl and trace_lifetimes_chrome.json \
         (open the latter in ui.perfetto.dev)",
        sink.recorder.len()
    );
}
