#!/usr/bin/env bash
# Builds the shipped `wym` binary and the benchmark, then runs one workload:
#   bash wymbench/run.sh --workload <fit|explain|classify|block|all> \
#       --seed <n> --seconds <s> --trace <0|1>
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and stderr;
# the benchmark's report, ending in one JSON line, goes to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "wymbench: $(pwd) is not a checkout of the WYM repository" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin wym >&2
cargo build --release --offline --quiet --manifest-path wymbench/Cargo.toml >&2
# Not exec: the benchmark must start with no waited-for children of its
# own, since `classify` reports the largest child's peak memory.
"$CARGO_TARGET_DIR/release/wymbench" --wym-bin "$CARGO_TARGET_DIR/release/wym" "$@"
