#!/usr/bin/env bash
# Diff two sets of BENCH_*.json files (see scripts/run_benches.sh and
# DESIGN.md §4) and fail on tier-1 bench regressions, so the perf
# trajectory accumulates across PRs instead of silently eroding.
#
# Usage: scripts/compare_benches.sh BASELINE_DIR CANDIDATE_DIR [THRESHOLD_PCT]
#
#   BASELINE_DIR   committed reference set (e.g. bench/baselines)
#   CANDIDATE_DIR  fresh run (e.g. bench_results from run_benches.sh)
#   THRESHOLD_PCT  max allowed cpu-time regression, default 10
#
# Every benchmark present in both sets is reported.  Only the *tier-1*
# benches gate the exit status (DRT_TIER1_BENCHES to override): the
# timing microbenches with statistically meaningful iteration counts
# (sim_core, rtree_ops), the two end-to-end hot-path benches that
# ride the R-tree substrate (search, latency), the partition/heal
# experiment (partition_stabilize) that rides the network-model send
# path, and the 100k-peer sharded-kernel scale run (million_peer) —
# single-shot iterations, so capture them with repetitions and
# rely on the min.  Other experiment benches are too noisy to gate on,
# but their deltas are still printed.  A tier-1 bench file or benchmark
# missing from the candidate set is a hard failure.  Two ratios within
# the candidate run are gated too, independent of machine speed:
# trace_overhead's alternating ring-over-off measurement, and sim_core's
# stabilizer-timer schedule vs its 10k-deep queue ops.
#
# Run both sets with --benchmark_repetitions=5: every repetition is one
# JSON record and the comparison takes the per-name minimum, which is
# robust to noisy-neighbor CPU steal on shared machines.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 BASELINE_DIR CANDIDATE_DIR [THRESHOLD_PCT]" >&2
  exit 2
fi
BASE_DIR="$1"
CAND_DIR="$2"
THRESHOLD="${3:-10}"
TIER1="${DRT_TIER1_BENCHES:-sim_core rtree_ops search latency partition_stabilize million_peer publish_throughput net_throughput quiescent_overhead trace_overhead}"

[ -d "$BASE_DIR" ] || { echo "baseline dir '$BASE_DIR' not found" >&2; exit 2; }
[ -d "$CAND_DIR" ] || { echo "candidate dir '$CAND_DIR' not found" >&2; exit 2; }

# Extract "name<TAB>cpu_ns_per_op" rows from one bench JSON (the format
# bench/bench_json.cpp emits: one benchmark object per line).
extract() {
  sed -n 's/.*"name": "\([^"]*\)".*"cpu_ns_per_op": \([0-9.eE+-]*\),.*/\1\t\2/p' "$1"
}

is_tier1() {
  local name="$1" t
  for t in $TIER1; do
    [ "$name" = "$t" ] && return 0
  done
  return 1
}

compared=0
failures=0
printf '%-12s %-34s %12s %12s %9s  %s\n' \
  "suite" "benchmark" "base_ns" "cand_ns" "delta_%" "verdict"

for base_file in "$BASE_DIR"/BENCH_*.json; do
  [ -f "$base_file" ] || continue
  fname="$(basename "$base_file")"
  suite="${fname#BENCH_}"
  suite="${suite%.json}"
  gate="no"
  is_tier1 "$suite" && gate="yes"
  # trace_overhead is tier-1 through its intra-suite ratio gate below
  # (ring over off within ONE run); its absolute times are reported but
  # not diff-gated — the scenario re-runs per iteration, so wall-clock
  # swings with machine load while the ratio stays tight.  A missing
  # candidate file still fails via the ratio-gate block.
  [ "$suite" = "trace_overhead" ] && gate="no"
  cand_file="$CAND_DIR/$fname"
  if [ ! -f "$cand_file" ]; then
    if [ "$gate" = "yes" ]; then
      # A tier-1 bench that never ran must not slip past the gate.
      echo "## $fname: MISSING from candidate set (tier-1 -> FAIL)"
      failures=$((failures + 1))
    else
      echo "## $fname: missing from candidate set (skipped)"
    fi
    continue
  fi

  # Join the two extracts on benchmark name and compute deltas in awk.
  result="$(
    { extract "$base_file" | sed 's/^/B\t/'; extract "$cand_file" | sed 's/^/C\t/'; } |
    awk -F'\t' -v suite="$suite" -v thr="$THRESHOLD" -v gate="$gate" '
      # Keep the per-name MINIMUM cpu time: with --benchmark_repetitions
      # each repetition is one record, and min-of-N is robust to the CPU
      # steal / noisy-neighbor spikes that wash out means on shared boxes.
      $1 == "B" { if (!($2 in base) || $3 < base[$2]) base[$2] = $3 }
      $1 == "C" { if (!($2 in cand) || $3 < cand[$2]) cand[$2] = $3 }
      END {
        bad = 0; n = 0
        # Surface candidate-only benchmarks so a new bench outside the
        # committed baseline is visible instead of silently uncompared.
        for (name in cand) {
          if (!(name in base)) {
            printf "%-12s %-34s %12s %12.0f %9s  %s\n", suite, name, "-", cand[name], "-", "new (refresh baseline)"
          }
        }
        for (name in base) {
          if (!(name in cand)) {
            # A tier-1 benchmark that vanished from the run must fail.
            if (gate == "yes") {
              printf "%-12s %-34s %12.0f %12s %9s  %s\n", suite, name, base[name], "-", "-", "MISSING (tier-1 -> FAIL)"
              bad++
            } else {
              printf "%-12s %-34s %12.0f %12s %9s  %s\n", suite, name, base[name], "-", "-", "missing (not gated)"
            }
            continue
          }
          n++
          d = base[name] > 0 ? (cand[name] - base[name]) / base[name] * 100 : 0
          verdict = "ok"
          if (d > thr) verdict = gate == "yes" ? "REGRESSION" : "slower (not gated)"
          if (d > thr && gate == "yes") bad++
          printf "%-12s %-34s %12.0f %12.0f %+9.1f  %s\n", suite, name, base[name], cand[name], d, verdict
        }
        printf "#%d %d\n", bad, n
      }'
  )"
  summary="$(printf '%s\n' "$result" | tail -1)"
  printf '%s\n' "$result" | sed '$d'
  failures=$((failures + $(printf '%s' "$summary" | cut -c2- | cut -d' ' -f1)))
  compared=$((compared + $(printf '%s' "$summary" | cut -d' ' -f2)))
done

# Intra-suite ratio gate for the flight recorder (DESIGN.md §12): in the
# *candidate* run, BM_TraceRingOverOff's ring_over_off counter — the
# fastest ring run over the fastest off run, timed alternately in one
# benchmark so both modes see the same machine drift — must stay within
# THRESHOLD% of 1 (minimum over repetitions).  A ratio within one run is
# robust to machine speed, where the absolute baseline diff above is
# not, so this is the gate that pins "tracing is cheap" rather than
# "this machine is fast".
trace_file="$CAND_DIR/BENCH_trace_overhead.json"
if [ -f "$trace_file" ]; then
  ratio_verdict="$(sed -n 's/.*"name": "BM_TraceRingOverOff[^"]*".*"ring_over_off": \([0-9.eE+-]*\).*/\1/p' "$trace_file" |
    awk -v thr="$THRESHOLD" '
    { if (!r || $1 < r) r = $1 }
    END {
      if (!r) { print "INCOMPLETE"; exit }
      d = (r - 1) * 100
      printf "%.1f %s\n", d, (d > thr ? "FAIL" : "ok")
    }')"
  case "$ratio_verdict" in
    INCOMPLETE)
      echo "## trace_overhead: BM_TraceRingOverOff ratio missing from candidate (FAIL)"
      failures=$((failures + 1)) ;;
    *FAIL)
      echo "## trace_overhead: ring is ${ratio_verdict% FAIL}% over off (limit ${THRESHOLD}%) -> FAIL"
      failures=$((failures + 1)) ;;
    *)
      echo "## trace_overhead: ring overhead ${ratio_verdict% ok}% (limit ${THRESHOLD}%)" ;;
  esac
elif is_tier1 "trace_overhead"; then
  echo "## trace_overhead: candidate JSON missing, ring/off ratio not checked (FAIL)"
  failures=$((failures + 1))
fi

# Intra-suite ratio gate for the stabilizer's timer schedule (DESIGN.md
# §3a): in the *candidate* run, one timer per process re-armed a whole
# period (400 000 buckets) ahead must cost at most 1.5x a steady-state
# queue op at 10k depth.  Fails when the cursor steps through empty
# buckets one at a time or in-order far timers ride the heap.
sim_file="$CAND_DIR/BENCH_sim_core.json"
if [ -f "$sim_file" ]; then
  stab_verdict="$(extract "$sim_file" | awk -F'\t' '
    $1 == "BM_QueueOps/10000"        { if (!q || $2 < q) q = $2 }
    $1 == "BM_StabilizerTimers/5000" { if (!t || $2 < t) t = $2 }
    END {
      if (!q || !t) { print "INCOMPLETE"; exit }
      r = t / q
      printf "%.2f %s\n", r, (r > 1.5 ? "FAIL" : "ok")
    }')"
  case "$stab_verdict" in
    INCOMPLETE)
      echo "## sim_core: StabilizerTimers/5000 or QueueOps/10000 missing from candidate (FAIL)"
      failures=$((failures + 1)) ;;
    *FAIL)
      echo "## sim_core: StabilizerTimers/5000 is ${stab_verdict% FAIL}x QueueOps/10000 (limit 1.5x) -> FAIL"
      failures=$((failures + 1)) ;;
    *)
      echo "## sim_core: StabilizerTimers/5000 is ${stab_verdict% ok}x QueueOps/10000 (limit 1.5x)" ;;
  esac
elif is_tier1 "sim_core"; then
  echo "## sim_core: candidate JSON missing, stabilizer-timer ratio not checked (FAIL)"
  failures=$((failures + 1))
fi

echo
if [ "$compared" -eq 0 ]; then
  echo "no comparable benchmarks found" >&2
  exit 2
fi
if [ "$failures" -gt 0 ]; then
  echo "FAIL: $failures tier-1 benchmark(s) regressed more than ${THRESHOLD}% (of $compared compared)"
  exit 1
fi
echo "OK: no tier-1 regression above ${THRESHOLD}% ($compared benchmarks compared)"
