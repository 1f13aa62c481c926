#!/usr/bin/env bash
# The benchmark's one command. Builds benchmark/ (release, offline) and then
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; the last
#                                  line of stdout is the JSON result (what the
#                                  driver in BENCHMARK.json calls)
#   run.sh [--seed N] [--seconds S] [--quick] [--trace] [--out DIR]
#                                  all four workloads, each in its own process,
#                                  results in DIR (default benchmark/results)
#   run.sh --compare DIR_A DIR_B   check set B against set A and the bounds
#   run.sh --sweep [--seed N]      scaling curves (CSV under benchmark/results)
#
# Exits non-zero if the build fails, any operation failed or a check did not
# hold, or --compare found a metric worse than its bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --features alloc-count \
    --manifest-path "$here/Cargo.toml" 1>&2
bin="$target/release/scope-e2e"
# Relative paths (BENCHMARK.json, the default result and journal directory
# benchmark/results) are meant from the repository root.
cd "$root"

for arg in "$@"; do
    case "$arg" in
        --workload | --sweep | --compare) exec "$bin" "$@" ;;
    esac
done

# Suite mode.
seed=12
seconds=20
out="$here/results"
quick=()
traced=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --quick) quick=(--quick); seconds=1; shift ;;
        --trace) traced=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
status=0
for workload in plan_batch serve_steady serve_durable bill_replay; do
    for trace in $(seq 0 "$traced"); do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            --out "$out" "${quick[@]}" >/dev/null || status=1
    done
done
exit "$status"
