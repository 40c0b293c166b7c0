//! Quickstart: compare all router designs on uniform-random traffic.
//!
//! Runs every design at a few offered loads on the paper's 8x8 mesh and
//! prints accepted throughput, latency and energy per packet — a miniature
//! of the paper's Figs. 5 and 6.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};

fn main() {
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 8_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    };

    println!(
        "8x8 mesh, uniform random traffic, capacity = {:.2} flits/node/cycle",
        cfg.capacity_per_node()
    );
    println!(
        "{:<17} {:>6} {:>10} {:>12} {:>12}",
        "design", "load", "accepted", "latency(cyc)", "energy(nJ/pkt)"
    );

    for design in Design::ALL {
        for load in [0.1, 0.3, 0.45, 0.6] {
            let plan = RunPlan::synthetic(design, &cfg, Pattern::UniformRandom, load);
            let r = run(plan).result;
            println!(
                "{:<17} {:>6.2} {:>10.3} {:>12.1} {:>12.2}",
                design.name(),
                load,
                r.accepted_fraction,
                r.avg_packet_latency,
                r.avg_packet_energy_nj
            );
        }
        println!();
    }
}
