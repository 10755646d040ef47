#!/usr/bin/env bash
# Alternating parent/change A/B of one perfbench workload: export BASE
# with `git archive`, then run `perfbench/run.py` once on BASE and once
# on the working tree per pair, alternating which side runs first, every
# run at BENCHMARK.json's run_seconds with tracing off.  For each
# end-to-end metric BENCHMARK.json declares it prints both sides' median
# and quartiles, the ratio change/base of the medians, the pairs the
# change won, and whether the medians differ by more than the base's
# interquartile range.  Exits 1 unless every run exited 0 with
# "correct": true and 0 failed ops; 2 on a usage error.
#
# Usage: scripts/perf_ab.sh BASE WORKLOAD [PAIRS] [FIRST_SEED]
#   BASE        a commit, e.g. HEAD~1
#   WORKLOAD    a workload BENCHMARK.json names, e.g. churn_repair
#   PAIRS       pairs of runs (default 10); pair i uses seed FIRST_SEED + i
#   FIRST_SEED  default 1
#
# BASE is exported once per commit under .bench_build/ab/<sha>/ (gitignored)
# and keeps its perfbench build there; run outputs land in
# .bench_build/ab/out/.  A pair takes two runs of run_seconds plus set-up,
# so run nothing else meanwhile.  Reads only perfbench/ and BENCHMARK.json.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: $0 BASE WORKLOAD [PAIRS] [FIRST_SEED]" >&2
  exit 2
fi
BASE="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
FIRST_SEED="${4:-1}"
sha="$(git rev-parse --verify "$BASE^{commit}")" || exit 2
seconds="$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

AB=.bench_build/ab
OUT="$AB/out"
if [ ! -d "$AB/$sha" ]; then
  mkdir -p "$AB/$sha.tmp"
  git archive "$sha" | tar -x -C "$AB/$sha.tmp"
  mv "$AB/$sha.tmp" "$AB/$sha"
fi
mkdir -p "$OUT"
rm -f "$OUT/$WORKLOAD".*.json

run() {  # run SIDE SEED: one perfbench run, its JSON line kept
  local dir=. json="$OUT/$WORKLOAD.$2.$1.json"
  [ "$1" = base ] && dir="$AB/$sha"
  if ! (cd "$dir" && python3 perfbench/run.py --workload "$WORKLOAD" \
          --seed "$2" --seconds "$seconds" --trace 0) \
        2>"$OUT/$WORKLOAD.$2.$1.log" | tail -n 1 >"$json"; then
    echo "  $1 seed $2: run failed (log: $OUT/$WORKLOAD.$2.$1.log)" >&2
  fi
}

echo "perf A/B: $WORKLOAD, base ${sha:0:12} vs working tree," \
     "$PAIRS pairs from seed $FIRST_SEED, ${seconds} s per run"
for ((i = 0; i < PAIRS; i++)); do
  seed=$((FIRST_SEED + i))
  if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
  for side in "${order[@]}"; do run "$side" "$seed"; done
  echo "  pair $((i + 1))/$PAIRS (seed $seed, ${order[0]} first) done"
done

python3 - "$OUT" "$WORKLOAD" "$FIRST_SEED" "$PAIRS" <<'EOF'
import json
import statistics
import sys

out, workload = sys.argv[1], sys.argv[2]
first, pairs = int(sys.argv[3]), int(sys.argv[4])
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

runs = {"base": [], "head": []}
bad = []
for seed in range(first, first + pairs):
    for side in runs:
        path = "%s/%s.%d.%s.json" % (out, workload, seed, side)
        try:
            result = json.loads(open(path).read())
        except (OSError, ValueError):
            result = {}
        if result.get("correct") is not True or result.get("failed", 1) != 0:
            bad.append("%s seed %d" % (side, seed))
        runs[side].append(result.get("metrics", {}))


def value(m, name):
    return m.get(name, {}).get("value")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


print("%-12s %-6s %12s %25s %12s %25s %7s %5s %s" % (
    "metric", "better", "base_med", "base_q1..q3", "head_med", "head_q1..q3",
    "ratio", "won", "beyond_base_iqr"))
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs_ok = [(value(b, name), value(h, name))
                for b, h in zip(runs["base"], runs["head"])
                if value(b, name) is not None and value(h, name) is not None]
    if not pairs_ok:
        print("%-12s missing" % name)
        continue
    base = [b for b, _ in pairs_ok]
    head = [h for _, h in pairs_ok]
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    won = sum(1 for b, h in pairs_ok if (h < b if lower else h > b))
    gain = (bmed - hmed) if lower else (hmed - bmed)
    print(("%-12s %-6s %12.4g %12.4g..%-11.4g %12.4g %12.4g..%-11.4g"
           " %7.3f %2d/%-2d %s") % (
        name, metric["better"], bmed, bq1, bq3, hmed, hq1, hq3,
        hmed / bmed if bmed else float("nan"), won, len(pairs_ok),
        "yes" if gain > bq3 - bq1 else "no"))

if bad:
    print("NOT CORRECT: " + ", ".join(bad))
    sys.exit(1)
print("every run correct, 0 failed ops")
EOF
