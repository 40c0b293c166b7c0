#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it with the given arguments:
#   bash benchmark/run.sh --workload kernel_8x8 --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh suite --runs 10 --out benchmark/out/A.json
#   bash benchmark/run.sh compare benchmark/out/A.json benchmark/out/B.json
# Build output goes to $CARGO_TARGET_DIR, or benchmark/target when unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"

# The build log goes to stderr: stdout carries only the result line.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# Provenance for the result files. The ceiling keeps git from looking for a
# repository above this checkout when the checkout itself is not one.
NOC_BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
    git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
NOC_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export NOC_BENCH_COMMIT NOC_BENCH_RUSTC

case "$target" in
    /*) bin="$target/release/noc-benchmark" ;;
    *) bin="$PWD/$target/release/noc-benchmark" ;;
esac
exec "$bin" "$@"
