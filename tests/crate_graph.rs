//! The workspace's crate graph is layered, and stays so: every
//! `[dependencies]` edge of every crate must point to a strictly lower
//! layer of [`LAYERS`] (DESIGN.md §7 draws the same order). The facade
//! `dxbar-noc` sits mid-stack on purpose — it owns `run(RunPlan)`, which
//! the scenario engine, the campaign executor and everything above them
//! call. `[dev-dependencies]` are exempt: a test may drive a higher layer.

use std::path::Path;

/// Bottom to top; crates on one line do not depend on each other.
const LAYERS: [&[&str]; 13] = [
    &["noc-core"],
    &["noc-topology", "noc-power", "noc-trace"],
    &["noc-routing", "noc-traffic", "noc-faults"],
    &["noc-resilience"],
    &["noc-sim"],
    &["dxbar", "noc-baseline", "noc-zoo"],
    &["noc-verify"],
    &["dxbar-noc"],
    &["noc-scenario"],
    &["noc-campaign"],
    &["noc-chaos"],
    &["bench"],
    &["noc-daemon"],
];

fn layer_of(name: &str) -> Option<usize> {
    LAYERS.iter().position(|layer| layer.contains(&name))
}

/// `(package name, names under [dependencies])` of one manifest.
fn manifest(path: &Path) -> (String, Vec<String>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (mut section, mut package, mut deps) = ("", None, Vec::new());
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => package = Some(value.trim().trim_matches('"')),
            // `noc-core.workspace = true` and `noc-core = { .. }` alike.
            "[dependencies]" if !key.starts_with('#') => {
                deps.push(key.split('.').next().unwrap().to_string())
            }
            _ => {}
        }
    }
    let package = package.unwrap_or_else(|| panic!("{} names no package", path.display()));
    (package.to_string(), deps)
}

#[test]
fn every_dependency_points_down_the_layer_order() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        manifests.push(entry.expect("crates/ entry").path().join("Cargo.toml"));
    }

    let mut seen = Vec::new();
    let mut back_edges = Vec::new();
    for path in &manifests {
        let (package, deps) = manifest(path);
        let layer = layer_of(&package)
            .unwrap_or_else(|| panic!("{package} is in no layer: place it in LAYERS"));
        // Anything outside LAYERS is a shim of a registry crate.
        for dep in deps.iter().filter(|d| layer_of(d).is_some()) {
            if layer_of(dep) >= Some(layer) {
                back_edges.push(format!("{package} -> {dep}"));
            }
        }
        seen.push(package);
    }
    assert!(back_edges.is_empty(), "edges that go up: {back_edges:?}");
    for name in LAYERS.iter().flat_map(|layer| layer.iter()) {
        assert!(seen.iter().any(|s| s == name), "{name} is not a crate");
    }
    // The parser found the edges: the top crate leans on the two it names.
    let (_, daemon) = manifest(&root.join("crates/noc-daemon/Cargo.toml"));
    assert!(daemon.contains(&"bench".to_string()) && daemon.contains(&"dxbar-noc".to_string()));
}
