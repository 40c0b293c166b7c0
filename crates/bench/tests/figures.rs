//! The evaluation registry (`bench::specs::REGISTRY`): every list that used
//! to be kept by hand is derived from it and still says what it said, both
//! spellings of a figure resolve, `fig` and `repro_all` refuse a bad
//! command line before doing any work, and a renderer that panics is an
//! error inside `repro_all`'s isolation wrapper, not past it.

use bench::figures::isolated;
use bench::specs::{lookup, preset, repro_all, FIGURES, PRESETS, REGISTRY};
use std::collections::HashSet;
use std::process::{Command, Output};

fn fig() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig"))
}

fn figure_names() -> Vec<&'static str> {
    let figures = REGISTRY.iter().filter(|e| e.render.is_some());
    figures.map(|e| e.name).collect()
}

#[test]
fn names_and_aliases_are_unique() {
    let mut seen = HashSet::new();
    for e in &REGISTRY {
        assert!(seen.insert(e.name), "{} is spelled twice", e.name);
        if e.alias != e.name {
            assert!(seen.insert(e.alias), "{} is spelled twice", e.alias);
        }
    }
}

#[test]
fn every_row_with_a_preset_validates_and_expands_to_points() {
    for e in &REGISTRY {
        let Some(build) = e.spec else {
            assert_eq!(e.name, "tables", "only the tables simulate nothing");
            continue;
        };
        let spec = build();
        spec.validate()
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert!(!spec.points().is_empty(), "{} has no points", e.name);
        assert!(e.render.is_some() || !e.paper, "{} cannot be drawn", e.name);
    }
}

#[test]
fn the_derived_lists_are_the_lists_that_were_kept_by_hand() {
    let words = |list: &'static str| list.split(' ').collect::<Vec<_>>();
    assert_eq!(
        PRESETS.to_vec(),
        words(
            "fig05 fig06 fig07_08 fig09_10 fig11_12 ablations resilience resilience_smoke \
             smoke verify_smoke zoo zoo_smoke scenario scenario_smoke repro_all"
        )
    );
    assert_eq!(
        FIGURES.to_vec(),
        words("fig05 fig06 fig07_08 fig09_10 fig11_12 ablations resilience zoo scenario")
    );
    // What `repro_all` renders, under the file stems its outputs carry.
    let paper = REGISTRY.iter().filter(|e| e.paper);
    assert_eq!(
        paper.map(|e| e.alias).collect::<Vec<_>>(),
        words(
            "tables fig05_throughput_ur fig06_energy_ur fig07_08_synthetic fig09_10_splash \
             fig11_12_faults ablations"
        )
    );
    // The union campaign: the paper rows' groups, in table order.
    let union = repro_all();
    let labels: Vec<&str> = union.groups.iter().map(|g| g.label.as_str()).collect();
    assert_eq!(
        labels[..10],
        words(
            "fig05_throughput_ur fig06_energy_ur fig07_08_synthetic fig09_10_splash fig11_12_f0 \
             fig11_12_f25 fig11_12_f50 fig11_12_f75 fig11_12_f100 ablation1_thresh=1"
        )
    );
    assert_eq!(labels.len(), 9 + 6 + 5 + 6 + 3);
}

#[test]
fn both_spellings_resolve_to_one_row() {
    for (name, alias) in [
        ("fig05", "fig05_throughput_ur"),
        ("fig06", "fig06_energy_ur"),
        ("fig07_08", "fig07_08_synthetic"),
        ("fig09_10", "fig09_10_splash"),
        ("fig11_12", "fig11_12_faults"),
        ("resilience", "fig_resilience"),
        ("zoo", "fig_zoo"),
        ("scenario", "fig_scenario"),
        ("repro_all", "all"),
    ] {
        let (a, b) = (lookup(name).expect(name), lookup(alias).expect(alias));
        assert!(std::ptr::eq(a, b), "{name} and {alias} are one row");
        assert_eq!(preset(name).unwrap().name, preset(alias).unwrap().name);
    }
    assert!(lookup("no-such-figure").is_none());

    // `campaign_run --preset` goes through the same table.
    let emitted = std::env::temp_dir().join(format!("dxbar_alias_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_campaign_run"))
        .args(["--preset", "fig_zoo", "--emit-spec"])
        .arg(&emitted)
        .output()
        .expect("spawn campaign_run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spec = std::fs::read_to_string(&emitted).expect("spec written");
    std::fs::remove_file(&emitted).ok();
    assert!(spec.contains("\"zoo_ur\""), "not the zoo spec: {spec}");
}

#[test]
fn fig_and_repro_all_refuse_a_bad_command_line_before_any_work() {
    // Any campaign a binary started would land here and fail the test.
    let scratch = std::env::temp_dir().join(format!("dxbar_fig_args_{}", std::process::id()));
    let run = |mut bin: Command, args: &[&str]| -> Output {
        let bin = bin.args(args).env("DXBAR_OUT", &scratch);
        bin.output().expect("spawn bin")
    };
    let refused = |out: &Output, what: &str| -> String {
        assert_eq!(out.status.code(), Some(2), "{what}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // `smoke` is a preset, not a figure; `fig05 fig06` is one name too many.
    for args in [
        &[][..],
        &["no_such_figure"],
        &["smoke"],
        &["fig05", "fig06"],
    ] {
        let err = refused(&run(fig(), args), &format!("fig {args:?}"));
        for name in figure_names() {
            assert!(
                err.contains(name),
                "fig {args:?}: {name} missing from: {err}"
            );
        }
    }
    let repro_all = || Command::new(env!("CARGO_BIN_EXE_repro_all"));
    let err = refused(&run(repro_all(), &["bogus"]), "repro_all bogus");
    assert!(err.contains("unexpected argument 'bogus'"), "stderr: {err}");

    for (bin, name) in [(fig(), "fig"), (repro_all(), "repro_all")] {
        let help = run(bin, &["--help"]);
        assert_eq!(help.status.code(), Some(0), "{name} --help");
        let text = String::from_utf8_lossy(&help.stdout);
        assert!(
            text.starts_with("usage:") && text.contains("DXBAR_OUT"),
            "{name} --help printed: {text}"
        );
    }
    let help = String::from_utf8(run(fig(), &["-h"]).stdout).unwrap();
    for name in figure_names() {
        assert!(help.contains(name), "{name} missing from: {help}");
    }

    assert!(
        !scratch.exists(),
        "a bin did work before checking arguments"
    );
}

#[test]
fn fig_tables_prints_and_writes_the_committed_text() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/quick/tables.txt"
    );
    let golden = std::fs::read_to_string(golden).expect("results/quick/tables.txt");
    let out_dir = std::env::temp_dir().join(format!("dxbar_fig_tables_{}", std::process::id()));
    // The old binary's name, which is the stem of the files.
    let out = fig().arg("tables").env("DXBAR_OUT", &out_dir).output();
    let out = out.expect("spawn fig");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{golden}\n"));
    let written = std::fs::read_to_string(out_dir.join("tables.txt")).expect("tables.txt");
    let json = std::fs::read_to_string(out_dir.join("tables.json")).expect("tables.json");
    std::fs::remove_dir_all(&out_dir).ok();
    assert_eq!(written, golden);
    assert_eq!(json.trim(), "[]", "the tables simulate nothing");
}

#[test]
fn a_renderer_without_its_points_is_an_error_inside_the_wrapper() {
    // What `repro_all` would see from each row had its campaign produced
    // nothing: the figures that look points up by name give up on the first
    // one, and that panic stops at the wrapper.
    let mut failed = Vec::new();
    for e in &REGISTRY {
        let Some(render) = e.render else { continue };
        match isolated(|| Ok(render(&[]))) {
            Ok((text, _)) => assert!(!text.is_empty(), "{} rendered nothing", e.name),
            Err(msg) => {
                assert!(msg.starts_with("panicked: "), "{}: {msg}", e.name);
                failed.push(e.name);
            }
        }
    }
    assert_eq!(failed, ["fig09_10", "ablations"]);
}
