#!/usr/bin/env bash
# Show that a change moved no experiment table: export BASE with
# `git archive`, build the named benches there and in the working tree,
# run each binary once on both sides, and diff the paper tables — each
# output from its first "=== " line on (the google-benchmark timings
# above that line differ run to run).  Prints every difference and
# exits 1 on any; exits 2 when a build fails.
#
# Usage: scripts/bench_tables.sh BASE [BENCH...]
#   BASE   a commit, e.g. HEAD~1
#   BENCH  bench names without the bench_ prefix.  Default: the 15
#          experiment benches whose tables repeat exactly from run to
#          run (together about 15 s of bench time).
#
# Everything lands under .bench_build/tables/ (gitignored); JOBS sets
# the build parallelism (default 4).
set -euo pipefail

cd "$(dirname "$0")/.."
if [ $# -lt 1 ]; then
  echo "usage: $0 BASE [BENCH...]" >&2
  exit 2
fi
BASE="$1"
shift
BENCHES=("$@")
if [ ${#BENCHES[@]} -eq 0 ]; then
  BENCHES=(accuracy baselines churn corruption_stabilize crash_stabilize
           height_memory join latency leave_stabilize loss
           partition_stabilize reorganization root_election search
           split_policies)
fi
WORK=.bench_build/tables
rm -rf "$WORK/base" "$WORK/out"
mkdir -p "$WORK/base" "$WORK/out"
git archive "$BASE" | tar -x -C "$WORK/base"

targets=()
for b in "${BENCHES[@]}"; do targets+=("bench_$b"); done

build() {  # build SIDE SOURCE_DIR
  local log="$WORK/out/build-$1.log"
  if ! { cmake -S "$2" -B "$WORK/$1-build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$WORK/$1-build" -j "${JOBS:-4}" \
               --target "${targets[@]}"; } >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "build failed on the $1 side (log: $log)" >&2
    exit 2
  fi
}
build base "$WORK/base"
build head .

status=0
for b in "${BENCHES[@]}"; do
  for side in base head; do
    if ! "$WORK/$side-build/bench/bench_$b" >"$WORK/out/$b.$side.raw" \
         2>/dev/null; then
      echo "bench_$b failed on the $side side" >&2
      status=1
    fi
    sed -n '/^=== /,$p' "$WORK/out/$b.$side.raw" >"$WORK/out/$b.$side.txt"
  done
  if diff -u "$WORK/out/$b.base.txt" "$WORK/out/$b.head.txt"; then
    echo "same     $b"
  else
    echo "CHANGED  $b"
    status=1
  fi
done
exit "$status"
