//! Fault tolerance: DXbar with a growing fraction of broken crossbars.
//!
//! Injects permanent single-crossbar faults into 0 %, 25 %, 50 %, 75 % and
//! 100 % of the routers (100 % = one crossbar failing at every router, the
//! paper's extreme case) and reports throughput, latency and power for
//! both DOR and West-First routing — a miniature of Figs. 11 and 12.
//! Expected shape: DOR degrades gracefully (< 10 %), WF suffers more, and
//! power rises as more flits are forced through the buffers.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{run, Design, RunPlan, SimConfig};

fn main() {
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 8_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(cfg.width, cfg.height);
    let load = 0.35;

    println!("uniform random @ load {load}; faults manifest during warmup");
    println!(
        "{:<10} {:>7} {:>10} {:>12} {:>14}",
        "design", "faults", "accepted", "latency(cyc)", "energy(nJ/pkt)"
    );
    for design in [Design::DXbarDor, Design::DXbarWf] {
        for percent in [0u32, 25, 50, 75, 100] {
            let faults = ResiliencePlan::none().with_crossbar(FaultPlan::generate(
                &mesh,
                percent as f64 / 100.0,
                cfg.warmup_cycles / 2,
                cfg.warmup_cycles,
                cfg.seed,
            ));
            let plan = RunPlan::synthetic(design, &cfg, Pattern::UniformRandom, load);
            let r = run(plan.faults(&faults)).result;
            println!(
                "{:<10} {:>6}% {:>10.3} {:>12.1} {:>14.2}",
                design.name(),
                percent,
                r.accepted_fraction,
                r.avg_packet_latency,
                r.avg_packet_energy_nj
            );
        }
        println!();
    }
}
