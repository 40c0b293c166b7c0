//! The whole harness on shrunken inputs: one tiny pass per workload, every
//! declared end-to-end metric present, every check green, scratch removed.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_suite_emits_every_declared_end_to_end_metric() {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = bench_dir.join("out/smoke-test.json");
    let status = Command::new(env!("CARGO_BIN_EXE_noc-benchmark"))
        .args(["suite", "--smoke", "--runs", "1", "--seconds", "1", "--out"])
        .arg(&out)
        .status()
        .expect("start the smoke suite");
    assert!(status.success(), "smoke suite failed: {status}");

    let declared =
        std::fs::read_to_string(bench_dir.join("../BENCHMARK.json")).expect("read BENCHMARK.json");
    let declared = serde_json::parse(&declared).expect("parse BENCHMARK.json");
    let file = serde_json::parse(&std::fs::read_to_string(&out).expect("read suite file"))
        .expect("parse suite file");
    let names = |list: &str| -> Vec<String> {
        declared
            .field(list)
            .as_array()
            .expect("a list")
            .iter()
            .map(|e| e.field("name").as_str().expect("a name").to_string())
            .collect()
    };
    for workload in names("workloads") {
        let run = file.field("workloads").field(&workload);
        assert_eq!(
            run.field("failed").as_array().map(<[_]>::len),
            Some(1),
            "{workload} did not run"
        );
        assert_eq!(
            run.field("failed")[0].as_u64(),
            Some(0),
            "{workload} failed a check"
        );
        assert!(run.field("attempted")[0].as_u64() >= Some(1));
        for metric in names("end_to_end") {
            let value = run.field("metrics").field(&metric)[0].as_f64();
            assert!(
                value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{workload}: {metric} = {value:?}"
            );
        }
    }
    let leftovers: Vec<_> = std::fs::read_dir(bench_dir.join("out"))
        .expect("list out/")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("scratch-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch state left behind: {leftovers:?}"
    );
}
