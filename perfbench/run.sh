#!/usr/bin/env bash
# Builds the gridsec daemon and the benchmark from source, then runs the
# benchmark with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload stga-online --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to $CARGO_TARGET_DIR (default: perfbench/target);
# the daemon specs a run writes go under <target>/perfbench-work.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p gridsec-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" --gridsec "$target/release/gridsec" \
    --work-dir "$target/perfbench-work" --repo-root "$root" "$@"
