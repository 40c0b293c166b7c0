//! CLI error paths of the bench bins: unknown preset, design, pattern and
//! scenario names must exit 2 (usage error, distinct from the exit-1
//! "points failed" path) and print the accepted spellings; `--help` must
//! answer without running anything; a run that delivers nothing exits 1.

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
fn bit_permutation_off_a_power_of_two_spec_exits_2() {
    use dxbar_noc::noc_core::config::Topology;
    let path = std::env::temp_dir().join(format!("dxbar_cli_pow2_{}.json", std::process::id()));
    for topology in [Topology::Mesh, Topology::Torus, Topology::CMesh] {
        for (width, height) in [(2, 3), (3, 5), (4, 6), (6, 6)] {
            for pattern in ["BR", "BF", "CP", "PS"] {
                let mut spec = bench::specs::smoke();
                let g = &mut spec.groups[0];
                g.config.width = width;
                g.config.height = height;
                g.config.topology = topology;
                g.workload = noc_campaign::WorkloadAxis::Synthetic {
                    patterns: vec![dxbar_noc::noc_traffic::patterns::Pattern::parse(pattern)
                        .expect("a pattern")],
                    loads: vec![0.3],
                };
                std::fs::write(&path, spec.to_json()).expect("write temp spec");
                let out = campaign_run()
                    .arg(&path)
                    .output()
                    .expect("spawn campaign_run");
                let err = String::from_utf8_lossy(&out.stderr);
                let case = format!("{pattern} on {width}x{height} {}", topology.name());
                assert_eq!(out.status.code(), Some(2), "{case}: {err}");
                assert!(err.contains("power-of-two"), "{case}: {err}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_run_top_past_the_kept_list_exits_2() {
    let top = (dxbar_noc::noc_sim::noc_trace::SLOWEST_KEPT + 1).to_string();
    let out = trace_run()
        .args(["--top", &top])
        .output()
        .expect("spawn trace_run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--top"), "stderr: {err}");
    let help = trace_run().arg("--help").output().expect("spawn trace_run");
    let help = String::from_utf8_lossy(&help.stdout);
    let kept = format!("at most {}", dxbar_noc::noc_sim::noc_trace::SLOWEST_KEPT);
    assert!(help.contains(&kept), "help: {help}");
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

/// Buffered-4 on the torus deadlocks (its wraparound rings close a cycle
/// of credit dependencies): it offers traffic and delivers none. That used
/// to print `accepted rate 0.0000` and exit 0.
#[test]
fn trace_run_stalled_torus_exits_1() {
    let out_dir = std::env::temp_dir().join(format!("trace-run-stalled-{}", std::process::id()));
    let out = trace_run()
        .args([
            "--design",
            "buffered4",
            "--scenario",
            "torus_ur",
            "--load",
            "0.5",
        ])
        .arg("--out")
        .arg(&out_dir)
        .env("DXBAR_QUICK", "1")
        .output()
        .expect("spawn trace_run");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("accepted rate 0.0000"), "stdout: {stdout}");
    assert_eq!(out.status.code(), Some(1), "a stalled run is a failed run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.lines()
            .any(|l| l.starts_with("error: stalled: 0 of ")
                && l.ends_with(" offered flits delivered")),
        "stderr: {err}"
    );
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

/// A cache entry flipped into bytes that are not UTF-8 is a detected miss:
/// one warning naming the entry, and the point simulates again. It used to
/// be a silent miss.
#[test]
fn campaign_run_warns_once_for_a_cache_entry_that_is_not_utf8() {
    let dir = std::env::temp_dir().join(format!("campaign-run-bit7-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("one.json");
    std::fs::write(
        &spec,
        r#"{"name":"one","retry":{"max_retries":0},"groups":[{"label":"one",
        "config":{"width":4,"height":4,"topology":"mesh","flit_bits":128,"buffer_depth":4,
        "num_vcs":1,"fairness_threshold":4,"fault_detection_delay":5,"warmup_cycles":20,
        "measure_cycles":100,"drain_cycles":20,"seed":1,"packet_len":1,"source_queue_cap":64},
        "designs":["DXbarDor"],"workload":{"kind":"synthetic","patterns":["UniformRandom"],
        "loads":[0.2]},"fault_fractions":[],"transient_rates":[],"link_faults":[],"seeds":[],
        "tag":null}]}"#,
    )
    .unwrap();
    let cache = dir.join("cache");
    let run = || {
        campaign_run()
            .arg(&spec)
            .arg("--cache")
            .arg(&cache)
            .arg("--manifest")
            .arg(dir.join("m.json"))
            .output()
            .expect("spawn campaign_run")
    };
    assert!(run().status.success());
    let entry = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("one cache entry");
    let mut bytes = std::fs::read(&entry).unwrap();
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x80;
    std::fs::write(&entry, bytes).unwrap();

    let out = run();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let warnings: Vec<&str> = err.lines().filter(|l| l.contains("warning:")).collect();
    assert_eq!(warnings.len(), 1, "stderr: {err}");
    assert!(
        warnings[0].contains(&*entry.to_string_lossy()),
        "{}",
        warnings[0]
    );
    let manifest = std::fs::read_to_string(dir.join("m.json")).unwrap();
    assert!(manifest.contains(r#""cache_misses": 1,"#), "{manifest}");
    let _ = std::fs::remove_dir_all(&dir);
}
