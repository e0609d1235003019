#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it:
#   benchmark/run.sh run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE]
#   benchmark/run.sh check A.json B.json
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# Build into the repository's target directory unless the caller names one;
# a relative CARGO_TARGET_DIR is relative to the caller's directory.
target=${CARGO_TARGET_DIR:-$here/../target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
mkdir -p "$target/tmp"
# rustc's scratch files stay in the build directory too.
CARGO_TARGET_DIR=$target TMPDIR=$target/tmp \
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/benchmark" "$@"
