#!/usr/bin/env bash
# Lines added, removed and net of a change, per area, from
# `git diff --numstat BASE` (the working tree against BASE): one row per
# src/<module>, a src/ total, then one row per other top-level directory
# or file.  Binary files carry no line counts and are left out.
#
# Usage: scripts/net_lines.sh [BASE]    (BASE defaults to HEAD~1)
set -euo pipefail

cd "$(dirname "$0")/.."
BASE="${1:-HEAD~1}"
export LC_ALL=C  # byte-order row sort on every machine

git diff --numstat --no-renames "$BASE" -- |
  awk -F'\t' '
    BEGIN { rank["src/ total"] = 1; add["src/ total"] = 0; del["src/ total"] = 0 }
    $1 == "-" { next }
    {
      n = split($3, part, "/")
      if (part[1] == "src") {
        key = n > 2 ? "src/" part[2] : $3
        rank[key] = 0
        add["src/ total"] += $1
        del["src/ total"] += $2
      } else {
        key = part[1]
        rank[key] = 2
      }
      add[key] += $1
      del[key] += $2
    }
    END { for (k in rank) printf "%d\t%s\t%d\t%d\n", rank[k], k, add[k], del[k] }' |
  sort -t $'\t' -k1,1n -k2,2 |
  awk -F'\t' '
    BEGIN { printf "%-24s %8s %8s %8s\n", "area", "added", "removed", "net" }
    { printf "%-24s %8d %8d %+8d\n", $2, $3, $4, $3 - $4 }'
