//! CLI error paths of the bench bins: unknown preset, design, pattern and
//! scenario names must exit 2 (usage error, distinct from the exit-1
//! "points failed" path) and print the accepted spellings; `--help` must
//! answer without running anything.

use std::process::Command;

fn campaign_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign_run"))
}

fn trace_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace_run"))
}

#[test]
fn unknown_preset_exits_2_and_lists_presets() {
    let out = campaign_run()
        .args(["--preset", "no_such_preset"])
        .output()
        .expect("spawn campaign_run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown preset"), "stderr: {err}");
    for name in bench::specs::PRESETS {
        assert!(err.contains(name), "preset {name} missing from: {err}");
    }
}

#[test]
fn unknown_design_in_spec_exits_2_and_lists_designs() {
    // A valid spec with one design name misspelled.
    let json = bench::specs::smoke()
        .to_json()
        .replace("\"DXbarDor\"", "\"DXbarDork\"");
    assert!(json.contains("DXbarDork"), "substitution target changed");
    let path = std::env::temp_dir().join(format!("dxbar_cli_errors_{}.json", std::process::id()));
    std::fs::write(&path, json).expect("write temp spec");

    let out = campaign_run()
        .arg(&path)
        .output()
        .expect("spawn campaign_run");
    std::fs::remove_file(&path).ok();

    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown Design variant"), "stderr: {err}");
    assert!(err.contains("known designs:"), "stderr: {err}");
    for d in dxbar_noc::Design::ALL {
        assert!(
            err.contains(&format!("{d:?}")),
            "design {d:?} missing from: {err}"
        );
    }
}

#[test]
fn trace_run_unknown_pattern_exits_2_and_lists_patterns() {
    let out = trace_run()
        .args(["--pattern", "zigzag"])
        .output()
        .expect("spawn trace_run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pattern"), "stderr: {err}");
    assert!(err.contains("known patterns:"), "stderr: {err}");
    for name in ["uniform", "transpose", "tornado"] {
        assert!(err.contains(name), "pattern {name} missing from: {err}");
    }
}

#[test]
fn trace_run_unknown_scenario_exits_2_and_lists_scenarios() {
    let out = trace_run()
        .args(["--scenario", "no_such_scenario"])
        .output()
        .expect("spawn trace_run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scenario"), "stderr: {err}");
    assert!(err.contains("known scenarios"), "stderr: {err}");
    for name in noc_scenario::ScenarioSpec::KNOWN {
        assert!(err.contains(name), "scenario {name} missing from: {err}");
    }
}

#[test]
fn trace_run_unknown_design_exits_2_and_lists_designs() {
    let out = trace_run()
        .args(["--design", "no-such-router"])
        .output()
        .expect("spawn trace_run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown design"), "stderr: {err}");
    assert!(err.contains("known designs:"), "stderr: {err}");
    for name in ["flit-bless", "damq", "minbd"] {
        assert!(err.contains(name), "design {name} missing from: {err}");
    }
}

#[test]
fn trace_run_help_lists_options_and_shares_dxbar_sims_spellings() {
    // Arguments parse left to right, so a spelling only `dxbar-sim` used
    // to take (`b4`, `MT`) must get past the parser for `--help` to answer.
    for args in [
        &["--help"][..],
        &["--design", "b4", "--pattern", "MT", "-h"],
    ] {
        let out = trace_run().args(args).output().expect("spawn trace_run");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        for option in ["--design", "--scenario", "--tile-threads", "--verify"] {
            assert!(text.contains(option), "{option} missing from: {text}");
        }
    }
}

#[test]
fn campaign_run_and_chaos_soak_help_is_an_answer_not_an_error() {
    let chaos_soak = || Command::new(env!("CARGO_BIN_EXE_chaos_soak"));
    for flag in ["--help", "-h"] {
        let out = campaign_run().arg(flag).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "campaign_run {flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: campaign_run"), "stdout: {text}");
        for name in bench::specs::PRESETS {
            assert!(text.contains(name), "preset {name} missing from: {text}");
        }
        assert!(out.stderr.is_empty(), "help is not an error");

        let out = chaos_soak().arg(flag).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "chaos_soak {flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: chaos_soak"), "stdout: {text}");
        for option in ["--seeds", "--cache-root", "--no-claim-kill", "--out"] {
            assert!(text.contains(option), "{option} missing from: {text}");
        }
        assert!(out.stderr.is_empty(), "help is not an error");
    }
}

#[test]
fn campaign_run_bad_tile_threads_exits_2() {
    for bad in ["lots", "-2", "3.5", ""] {
        let out = campaign_run()
            .args(["--preset", "smoke", "--tile-threads", bad])
            .output()
            .expect("spawn campaign_run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--tile-threads {bad:?} must be a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--tile-threads"), "stderr: {err}");
    }
}

#[test]
fn campaign_run_bad_tile_threads_env_exits_2() {
    let out = campaign_run()
        .args(["--preset", "smoke", "--emit-spec", "/dev/null"])
        .env("DXBAR_TILE_THREADS", "many")
        .output()
        .expect("spawn campaign_run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "garbage DXBAR_TILE_THREADS must be a usage error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("DXBAR_TILE_THREADS"), "stderr: {err}");
}

#[test]
fn trace_run_bad_tile_threads_exits_2() {
    let out = trace_run()
        .args(["--tile-threads", "banana"])
        .output()
        .expect("spawn trace_run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad tile-thread count"), "stderr: {err}");
}

#[test]
fn unknown_design_hint_ignores_other_errors() {
    assert!(bench::unknown_design_hint("bad json at line 3").is_none());
    let hint = bench::unknown_design_hint("unknown Design variant \"Foo\"").unwrap();
    assert!(hint.contains("Damq") && hint.contains("MinBd"));
}
