#!/usr/bin/env bash
# Noise calibration: two back-to-back sets of full runs of the same build
# (default 5 runs per workload per set). Prints the table perf/README.md
# carries and exits non-zero if any set-to-set gap exceeds half its bound.
set -euo pipefail
exec "$(dirname "$0")/run.sh" --calibrate "${1:-5}"
