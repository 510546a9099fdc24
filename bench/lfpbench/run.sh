#!/usr/bin/env bash
# Builds lfpbench in Release under .bench_build/lfpbench at the repository
# root, then hands every argument to lfpbench.py. Build output goes to
# stderr so the last line of stdout stays lfpbench.py's JSON result.
#
#   bench/lfpbench/run.sh [--workload NAME] [--seed N] [--reps N | --seconds S]
#                         [--trace [0|1]] [--smoke] [--out FILE]
#   bench/lfpbench/run.sh --selftest
#   bench/lfpbench/run.sh compare A.json[,A2.json...] B.json[,B2.json...]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

if [[ "${1:-}" == "compare" ]]; then
  exec python3 "$here/lfpbench.py" "$@"
fi

build="$root/.bench_build/lfpbench"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target lfpbench lfp_serve -j "$(nproc)" >&2

rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec python3 "$here/lfpbench.py" --bin "$build/lfpbench" \
  --serve-bin "$build/lfp/tools/lfp_serve" --work-dir "$build/run" --git-rev "$rev" "$@"
