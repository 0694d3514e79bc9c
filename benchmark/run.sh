#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload build|query|query_ood|serve \
#        --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. The last line of standard output is
# the result (one JSON object); the header, cargo's output and, in a traced
# run, the span summary go to standard error. Everything it writes goes
# under $CARGO_TARGET_DIR (default .bench_build, inside the checkout),
# except the lock file cargo keeps next to benchmark/Cargo.toml.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The numbers are defined at 2 worker threads (fewer on a 1-core box) and
# with every tuning knob of the library at its default.
cores=$(nproc)
export PARLAY_NUM_THREADS=$(( cores < 2 ? cores : 2 ))
unset RAYON_NUM_THREADS
for knob in $(compgen -e PARLAYANN_ || true); do
    unset "$knob"
done
PERF_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERF_GIT_REV

# The library is measured as its users build it: with the release profile
# of the repository's root manifest, handed to cargo as configuration.
mkdir -p "$CARGO_TARGET_DIR"
awk '/^\[/ { on = /^\[profile\.release/ } on' Cargo.toml > "$CARGO_TARGET_DIR/root-profile.toml"
cargo build --release --offline --quiet --config "$CARGO_TARGET_DIR/root-profile.toml" \
    --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perf" "$@"
