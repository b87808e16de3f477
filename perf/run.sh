#!/usr/bin/env bash
# The benchmark's one command: builds the perf package (release, offline)
# and runs it. Everything after the script name goes to the program:
#
#   perf/run.sh --workload raw_join --seed 42 --seconds 12 --trace 0
#   perf/run.sh --smoke
#
# Builds into $CARGO_TARGET_DIR when set, perf/target otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- "$@"
