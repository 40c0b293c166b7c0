//! The `noc-daemon` command line: every usage error is one `error: ` line
//! and exit 2 before the daemon starts, and `--help` is an answer (exit 0).

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `noc-daemon` with `args` on an ephemeral port; a daemon that
/// starts instead of refusing its arguments is killed and fails the test.
fn noc_daemon(args: &[&str]) -> Output {
    let state = std::env::temp_dir().join(format!("noc_daemon_cli_{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_noc-daemon"))
        .args(["--addr", "127.0.0.1:0", "--state"])
        .arg(&state)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn noc-daemon");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll noc-daemon").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            std::fs::remove_dir_all(&state).ok();
            panic!("noc-daemon {args:?} started instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect noc-daemon output");
    std::fs::remove_dir_all(&state).ok();
    out
}

#[test]
fn usage_errors_exit_2_with_one_error_line() {
    for (args, message) in [
        // `Daemon::start` would run one worker while `/healthz` said 0.
        (
            &["--workers", "0"][..],
            "--workers needs a positive integer, not '0'",
        ),
        (
            &["--workers", "two"],
            "--workers needs a positive integer, not 'two'",
        ),
        (
            &["--max-body", "big"],
            "--max-body needs a byte count, not 'big'",
        ),
        (&["--bogus"], "unknown option '--bogus'"),
        (&["--state"], "--state needs a value"),
    ] {
        let out = noc_daemon(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(&format!("error: {message}\n")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn help_is_an_answer_not_an_error() {
    for flag in ["--help", "-h"] {
        let out = noc_daemon(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: noc-daemon"), "stdout: {text}");
        assert!(out.stderr.is_empty(), "help is not an error");
    }
}
