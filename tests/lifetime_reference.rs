//! The lifetime population against a brute-force reference: every design's
//! full event stream paired by hand into one record per completed flit,
//! sorted and ranked, must give the summary and every slowest-flit table
//! the bounded population gives.

use dxbar_noc::noc_sim::noc_trace::{
    percentile_of_sorted, FlitLifetime, LifetimeSummary, RecordingSink, TraceEvent, SLOWEST_KEPT,
};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};
use std::collections::HashMap;

/// Every ejected lifetime of `events`, in completion order, and the
/// flits left open.
fn ejected_lifetimes(events: &[TraceEvent]) -> (Vec<FlitLifetime>, u64) {
    let mut open = HashMap::new();
    let mut done = Vec::new();
    for ev in events {
        match *ev {
            TraceEvent::Inject {
                cycle,
                node,
                packet,
                flit_index,
            } => {
                open.insert((packet.0, flit_index), (node.0, cycle));
            }
            TraceEvent::Drop {
                packet, flit_index, ..
            } => {
                open.remove(&(packet.0, flit_index));
            }
            TraceEvent::Eject {
                cycle,
                node,
                packet,
                flit_index,
                latency,
            } => {
                if let Some((src, injected)) = open.remove(&(packet.0, flit_index)) {
                    done.push(FlitLifetime {
                        packet: packet.0,
                        flit_index,
                        src,
                        end_node: node.0,
                        injected,
                        finished: cycle,
                        dropped: false,
                        reported_latency: latency,
                    });
                }
            }
            _ => {}
        }
    }
    (done, open.len() as u64)
}

#[test]
fn bounded_population_matches_the_full_pairing_for_every_design() {
    let cfg = SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 300,
        ..SimConfig::default()
    };
    for design in Design::ALL {
        // Past saturation, so latencies spread and ties are common.
        let plan = RunPlan::synthetic(design, &cfg, Pattern::UniformRandom, 0.6);
        let sink = run(plan.traced(RecordingSink::new(0, 1)))
            .trace
            .expect("traced plan");
        let events: Vec<TraceEvent> = sink.recorder.iter().collect();
        let lifetimes = &sink.lifetimes;

        let (mut done, in_flight) = ejected_lifetimes(&events);
        let count =
            |kind: fn(&TraceEvent) -> bool| events.iter().filter(|e| kind(e)).count() as u64;
        let mut sorted: Vec<u64> = done.iter().map(|l| l.reported_latency).collect();
        sorted.sort_unstable();
        assert!(
            sorted.len() > SLOWEST_KEPT,
            "{}: too few flits",
            design.name()
        );
        let reference = LifetimeSummary {
            injected: count(|e| matches!(e, TraceEvent::Inject { .. })),
            ejected: count(|e| matches!(e, TraceEvent::Eject { .. })),
            dropped: count(|e| matches!(e, TraceEvent::Drop { .. })),
            in_flight,
            mean_latency: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            p50: percentile_of_sorted(&sorted, 50.0).unwrap(),
            p90: percentile_of_sorted(&sorted, 90.0).unwrap(),
            p99: percentile_of_sorted(&sorted, 99.0).unwrap(),
            max_latency: *sorted.last().unwrap(),
        };
        assert_eq!(lifetimes.summary(), reference, "{}", design.name());
        assert_eq!(lifetimes.sorted_latencies(), sorted, "{}", design.name());

        // A stable sort keeps equal keys in completion order.
        done.sort_by(|a, b| {
            b.reported_latency
                .cmp(&a.reported_latency)
                .then(a.packet.cmp(&b.packet))
                .then(a.flit_index.cmp(&b.flit_index))
        });
        for n in 0..=SLOWEST_KEPT {
            let top: Vec<FlitLifetime> = lifetimes.top_slowest(n).into_iter().cloned().collect();
            assert_eq!(top, done[..n], "{}: top {n}", design.name());
        }
    }
}
