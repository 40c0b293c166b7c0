//! Adverse traffic patterns: which designs hold up when the pattern fights
//! the routing algorithm?
//!
//! Runs all nine synthetic patterns of the paper (UR, NUR, BR, BF, CP, MT,
//! PS, NB, TOR) at an offered load of 0.3 of capacity and prints throughput
//! and energy per design — a miniature of the paper's Figs. 7 and 8. The
//! bit-permutation patterns (BR, BF, MT, PS) favour adaptive routing, so
//! DXbar WF is expected to close on (or beat) DXbar DOR there.
//!
//! ```text
//! cargo run --release --example adverse_traffic
//! ```

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};

fn main() {
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        drain_cycles: 3_000,
        ..SimConfig::default()
    };
    let load = 0.3;
    let designs = [
        Design::FlitBless,
        Design::Scarab,
        Design::Buffered8,
        Design::DXbarDor,
        Design::DXbarWf,
    ];

    println!("offered load = {load} of capacity; accepted throughput (fraction of capacity)");
    print!("{:<9}", "pattern");
    for d in designs {
        print!(" {:>12}", d.name());
    }
    println!();

    for pattern in Pattern::ALL {
        print!("{:<9}", pattern.abbrev());
        for d in designs {
            let r = run(RunPlan::synthetic(d, &cfg, pattern, load)).result;
            print!(" {:>12.3}", r.accepted_fraction);
        }
        println!();
    }

    println!("\nenergy per packet (nJ)");
    print!("{:<9}", "pattern");
    for d in designs {
        print!(" {:>12}", d.name());
    }
    println!();
    for pattern in Pattern::ALL {
        print!("{:<9}", pattern.abbrev());
        for d in designs {
            let r = run(RunPlan::synthetic(d, &cfg, pattern, load)).result;
            print!(" {:>12.2}", r.avg_packet_energy_nj);
        }
        println!();
    }
}
