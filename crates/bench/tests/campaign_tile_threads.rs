//! `campaign_run --tile-threads` must be invisible in everything a
//! campaign reports: the `verify_smoke` preset under `--verify` prints the
//! same results table and records the same manifest `verify` block
//! (checks performed, violations found) on two tile workers per point as
//! on one. Verified points step on the tile workers like any other, so
//! the executor's jobs / tile-threads division describes what runs.

use std::process::Command;

/// (stdout table, manifest `verify` block) of one verified run.
fn verify_smoke(tile_threads: &str) -> (String, String) {
    let manifest = std::env::temp_dir().join(format!(
        "dxbar_campaign_tiles_{}_{tile_threads}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_campaign_run"))
        .args(["--preset", "verify_smoke", "--verify", "--jobs", "1"])
        .args(["--tile-threads", tile_threads])
        .arg("--manifest")
        .arg(&manifest)
        .env_remove("DXBAR_CACHE")
        .env_remove("DXBAR_TILE_THREADS")
        .output()
        .expect("spawn campaign_run");
    assert!(
        out.status.success(),
        "campaign_run --tile-threads {tile_threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    std::fs::remove_file(&manifest).ok();
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("manifest is JSON");
    let verify = parsed.get("verify").expect("manifest has a verify block");
    (
        String::from_utf8(out.stdout).expect("utf-8 table"),
        serde_json::to_string(verify).expect("serialize verify block"),
    )
}

#[test]
fn verified_campaign_is_identical_on_one_and_two_tile_workers() {
    let (table, verify) = verify_smoke("1");
    assert!(table.lines().count() >= 22, "table: {table}");
    assert!(verify.contains("\"violations\":0"), "verify: {verify}");
    assert!(!verify.contains("\"checks\":0"), "verify: {verify}");
    assert_eq!(verify_smoke("2"), (table, verify));
}
