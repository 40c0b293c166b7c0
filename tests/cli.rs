//! End-to-end tests of the `dxbar-sim` command-line interface.

mod rejected;

use std::process::Command;

fn dxbar_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dxbar-sim"))
}

#[test]
fn synthetic_run_prints_summary() {
    let out = dxbar_sim()
        .args([
            "--design",
            "dxbar-dor",
            "--pattern",
            "UR",
            "--load",
            "0.2",
            "--mesh",
            "4x4",
            "--warmup",
            "200",
            "--cycles",
            "800",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DXbar DOR"));
    assert!(text.contains("accepted load"));
    assert!(text.contains("energy per packet"));
}

#[test]
fn json_output_is_parseable() {
    let out = dxbar_sim()
        .args([
            "--design", "bless", "--load", "0.1", "--mesh", "4x4", "--warmup", "100", "--cycles",
            "400", "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout must be valid JSON");
    assert_eq!(v["design"], "Flit-Bless");
    assert!(v["accepted_fraction"].as_f64().unwrap() > 0.05);
}

#[test]
fn faults_on_unsupported_design_is_an_error() {
    let out = dxbar_sim()
        .args(["--design", "bless", "--faults", "50"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("only meaningful for dxbar"), "stderr: {err}");
}

#[test]
fn rejected_plans_exit_2() {
    let mut expressed = 0;
    for row in rejected::TABLE {
        let Some(args) = row.dxbar_sim_args() else {
            continue;
        };
        let out = dxbar_sim().args(&args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(row.error), "{args:?}: {err}");
        expressed += 1;
    }
    assert_eq!(expressed, 1, "dxbar-sim expresses the crossbar-fault row");
}

#[test]
fn faults_apply_to_splash_runs_and_stay_clean() {
    let run = |extra: &[&str]| {
        let out = dxbar_sim()
            .args(["--design", "dxbar-dor", "--splash", "fft", "--mesh", "4x4"])
            .args(["--json", "--verify"])
            .args(extra)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "stderr: {err}");
        assert!(err.contains("verification: clean"), "stderr: {err}");
        out.stdout
    };
    let healthy = run(&[]);
    assert_eq!(run(&["--faults", "0"]), healthy);
    assert_ne!(
        run(&["--faults", "100"]),
        healthy,
        "a broken crossbar in every router must show in a SPLASH run"
    );
    // ... however long the warmup the closed-loop run does not have.
    assert_ne!(run(&["--faults", "100", "--warmup", "100000000"]), healthy);
}

#[test]
fn long_pattern_names_match_their_abbreviations() {
    let run = |pattern: &str| {
        let out = dxbar_sim()
            .args(["--pattern", pattern, "--mesh", "4x4", "--json"])
            .args(["--warmup", "50", "--cycles", "200"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "--pattern {pattern}");
        out.stdout
    };
    assert_eq!(run("transpose"), run("MT"));
    assert_eq!(run("uniform"), run("ur"));
}

#[test]
fn unknown_flag_fails_with_help() {
    let out = dxbar_sim().args(["--bogus"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn bit_permutation_off_a_power_of_two_exits_2() {
    // Bit-reversal, butterfly, complement and shuffle need a power-of-two
    // terminal count: a usage error before any network is built.
    for mesh in ["2x3", "3x5", "4x6", "6x6"] {
        for pattern in ["BR", "BF", "CP", "PS"] {
            let out = dxbar_sim()
                .args(["--mesh", mesh, "--pattern", pattern])
                .output()
                .expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{pattern} on {mesh}: {err}");
            assert!(err.contains("power-of-two"), "{pattern} on {mesh}: {err}");
        }
    }
}

#[test]
fn cycle_window_past_u64_exits_2() {
    // The warmup + measure + drain sum used to wrap: a run that simulated
    // nothing, or about 200 cycles reported as 2^64 - 1.
    let max = u64::MAX.to_string();
    for flag in ["--warmup", "--cycles"] {
        let out = dxbar_sim()
            .args(["--mesh", "2x2", "--cycles", "100", flag, &max])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {max}: {err}");
        assert!(err.contains("must fit in u64"), "{flag} {max}: {err}");
    }
}

#[test]
fn unknown_pattern_exits_2_and_lists_patterns() {
    let out = dxbar_sim()
        .args(["--pattern", "ZZZ"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pattern"), "stderr: {err}");
    assert!(err.contains("known patterns:"), "stderr: {err}");
    for abbrev in ["UR", "NUR", "MT", "TOR"] {
        assert!(err.contains(abbrev), "abbrev {abbrev} missing from: {err}");
    }
}

#[test]
fn unknown_design_exits_2_and_lists_designs() {
    let out = dxbar_sim()
        .args(["--design", "no-such-router"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown design"), "stderr: {err}");
    assert!(err.contains("known designs:"), "stderr: {err}");
    for name in ["flit-bless", "damq", "minbd"] {
        assert!(err.contains(name), "design {name} missing from: {err}");
    }
}

#[test]
fn bad_tile_threads_exits_2() {
    for bad in ["many", "-1", "2.5"] {
        let out = dxbar_sim()
            .args(["--tile-threads", bad])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--tile-threads {bad:?} must be a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad tile-thread count"), "stderr: {err}");
    }
}

#[test]
fn bad_tile_threads_env_exits_2() {
    let out = dxbar_sim()
        .args(["--mesh", "4x4", "--warmup", "50", "--cycles", "100"])
        .env("DXBAR_TILE_THREADS", "banana")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("DXBAR_TILE_THREADS"), "stderr: {err}");
}

#[test]
fn tile_threads_matches_sequential_output() {
    let run = |tile: &str| {
        let out = dxbar_sim()
            .args([
                "--design",
                "scarab",
                "--load",
                "0.3",
                "--mesh",
                "8x8",
                "--warmup",
                "300",
                "--cycles",
                "1200",
                "--json",
                "--tile-threads",
                tile,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let seq = run("0");
    for tile in ["1", "2", "4"] {
        assert_eq!(
            run(tile),
            seq,
            "tiled run ({tile} workers) must be byte-identical to sequential"
        );
    }
}

#[test]
fn list_enumerates_everything() {
    let out = dxbar_sim().args(["--list"]).output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["dxbar-dor", "unified-wf", "UR", "TOR", "ocean", "barnes"] {
        assert!(text.contains(needle), "missing {needle} in --list");
    }
}
