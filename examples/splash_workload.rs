//! SPLASH-2 style closed-loop workloads: execution time and energy.
//!
//! Runs the nine-application coherence workload model to completion on a
//! few designs and prints execution time (normalized to Buffered 4) and
//! energy — a miniature of the paper's Figs. 9 and 10. Because the MSHR
//! window throttles each core, lower network latency directly shortens
//! execution time.
//!
//! ```text
//! cargo run --release --example splash_workload
//! ```

use dxbar_noc::noc_traffic::splash::SplashApp;
use dxbar_noc::{run, Design, RunPlan, SimConfig};

fn main() {
    let cfg = SimConfig::default();
    let designs = [
        Design::FlitBless,
        Design::Scarab,
        Design::Buffered4,
        Design::DXbarDor,
    ];
    let max_cycles = 3_000_000;

    println!("execution time normalized to Buffered 4 (lower is better)");
    print!("{:<11}", "app");
    for d in designs {
        print!(" {:>11}", d.name());
    }
    println!("  | energy (uJ): same order");

    for app in [
        SplashApp::Fft,
        SplashApp::Ocean,
        SplashApp::Water,
        SplashApp::Radix,
    ] {
        let base = run(RunPlan::splash(Design::Buffered4, &cfg, app, max_cycles)).result;
        let base_time = base.finish_cycle.expect("baseline must finish") as f64;
        print!("{:<11}", app.name());
        let mut energies = Vec::new();
        for d in designs {
            let r = run(RunPlan::splash(d, &cfg, app, max_cycles)).result;
            let t = r.finish_cycle.map(|c| c as f64 / base_time);
            match t {
                Some(t) => print!(" {:>11.3}", t),
                None => print!(" {:>11}", "DNF"),
            }
            energies.push(r.energy.total_pj() / 1e6);
        }
        print!("  |");
        for e in energies {
            print!(" {e:>8.2}");
        }
        println!();
    }
}
