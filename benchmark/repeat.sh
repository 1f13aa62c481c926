#!/usr/bin/env bash
# Run the whole suite twice on this commit and compare the two result sets
# against the bounds in BENCHMARK.json. Extra arguments go to both runs
# (e.g. --seed 13, --quick).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
"$here/run.sh" "$@" --out "$here/results/set-a"
"$here/run.sh" "$@" --out "$here/results/set-b"
"$here/run.sh" --compare "$here/results/set-a" "$here/results/set-b"
