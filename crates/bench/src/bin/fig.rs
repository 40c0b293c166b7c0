//! `fig <name>` — regenerate one table or figure of the evaluation: run its
//! campaign (or read it back from `DXBAR_CACHE`), print the rendered text,
//! and with `DXBAR_OUT=<dir>` write `<figure>.txt`/`.json`/`.svg` and the
//! campaign's manifest there. `fig --help` lists the names; the one each
//! figure's own binary used to have (`fig05_throughput_ur`, `fig_zoo`, ...)
//! is accepted too.
//!
//! ```text
//! cargo run --release -p bench --bin fig -- fig05
//! ```
//!
//! Exits 1 when the figure is incomplete (failed points, or invariant
//! violations under `DXBAR_VERIFY=1`), 2 on usage errors.

use bench::figures::regenerate;
use bench::specs::{lookup, REGISTRY};
use dxbar_noc::cli::Args;

fn main() {
    let figures = REGISTRY.iter().filter(|e| e.render.is_some());
    let names: Vec<&str> = figures.map(|e| e.name).collect();
    let usage = format!(
        "usage: fig <name>   (environment: {})\nfigures: {}",
        bench::FIGURE_ENV,
        names.join(", ")
    );
    let mut args = Args::new(&usage, &usage);
    let Some(name) = args.next_arg() else {
        args.fail("need the name of a figure")
    };
    if let Some(extra) = args.next_arg() {
        args.fail(&format!("unexpected argument '{extra}'"));
    }
    let Some(entry) = lookup(&name).filter(|e| e.render.is_some()) else {
        args.fail(&format!("unknown figure '{name}'"))
    };
    if let Err(e) = regenerate(entry) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
