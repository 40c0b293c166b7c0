//! `noc-daemon` — the always-on campaign service.
//!
//! ```text
//! noc-daemon --state runs/daemon --cache runs/cache --workers 4
//! noc-daemon --addr 127.0.0.1:7077 --drop runs/inbox --verify
//! ```
//!
//! Start two daemons with the *same* `--cache` (and different `--state`
//! and `--addr`) and they shard every submitted campaign cooperatively:
//! each point is simulated by exactly one worker across both processes.
//!
//! SIGTERM/ctrl-c (or `POST /shutdown`) drains in-flight points and exits;
//! the queue is in `<state>/journal.log`, so restarting with the same
//! `--state` resumes unfinished jobs with all completed points served
//! from the cache.

use dxbar_noc::cli::Args;
use noc_daemon::{signals, Daemon, DaemonConfig};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
usage: noc-daemon [options]

  --addr HOST:PORT   listen address (default 127.0.0.1:7077; port 0 = any)
  --state DIR        directory of journal.log and the endpoint file
                     (default noc-daemon-state)
  --cache DIR        shared result-cache directory (default <state>/cache;
                     point several daemons here to shard work)
  --drop DIR         watch DIR for dropped campaign-spec *.json files
  --workers N        simulation worker threads (default 2)
  --verify           verify submitted jobs by default (DXBAR_VERIFY also works)
  --max-body BYTES   largest accepted HTTP body (default 1048576)
  --auth-token TOK   require `Authorization: Bearer TOK` on mutating
                     endpoints (POST /jobs, /jobs/<id>/cancel, /shutdown);
                     the NOC_DAEMON_TOKEN env var works too
  --help             this text
";

fn main() {
    let mut cfg = DaemonConfig::default();
    if dxbar_noc::noc_verify::verify_from_env() {
        cfg.verify_default = true;
    }
    if let Ok(token) = std::env::var("NOC_DAEMON_TOKEN") {
        if !token.is_empty() {
            cfg.auth_token = Some(token);
        }
    }
    let mut cache_dir: Option<PathBuf> = None;
    let mut args = Args::new(USAGE.trim_end(), USAGE.trim_end());
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.value("--addr"),
            "--state" => cfg.state_dir = PathBuf::from(args.value("--state")),
            "--cache" => cache_dir = Some(PathBuf::from(args.value("--cache"))),
            "--drop" => cfg.drop_dir = Some(PathBuf::from(args.value("--drop"))),
            "--workers" => {
                cfg.workers = args
                    .parsed::<NonZeroUsize>("--workers", "a positive integer")
                    .get()
            }
            "--verify" => cfg.verify_default = true,
            "--auth-token" => cfg.auth_token = Some(args.value("--auth-token")),
            "--max-body" => cfg.max_body = args.parsed("--max-body", "a byte count"),
            other => args.fail(&format!("unknown option '{other}'")),
        }
    }
    cfg.cache_dir = cache_dir.unwrap_or_else(|| cfg.state_dir.join("cache"));

    let stop = signals::install();
    let state_dir = cfg.state_dir.clone();
    let handle = match Daemon::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("noc-daemon listening on http://{}", handle.addr);
    // Endpoint file: lets scripts discover a port-0 daemon's address.
    let endpoint = state_dir.join("endpoint");
    if let Err(e) = std::fs::write(&endpoint, format!("{}\n", handle.addr)) {
        eprintln!(
            "noc-daemon: warning: cannot write {}: {e}",
            endpoint.display()
        );
    }

    // Translate SIGINT/SIGTERM into the graceful drain; `POST /shutdown`
    // sets draining directly.
    let state = handle.state().clone();
    std::thread::spawn(move || loop {
        if stop.load(std::sync::atomic::Ordering::Acquire) {
            state.begin_drain();
            return;
        }
        if state.is_draining() {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    });

    handle.wait();
}
