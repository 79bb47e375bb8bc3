#!/usr/bin/env bash
# Bench-regression guard for the serving hot path: parses the quick-scale
# `incremental_refresh` bench output and fails if an incremental refresh
# regressed past its factor x the baseline median recorded in the
# `bench_guard` block of the newest committed `BENCH_<pr>.json` that has
# one (read with python3's stdlib json). Runner-noise-aware on purpose:
# CI runners are noisy and
# differently-sized from the machine that recorded the baseline, so a
# regression must show in BOTH views before the job fails —
#
#   1. absolute: the incremental median exceeds factor x its recorded
#      baseline median, AND
#   2. normalized: the same-run ratio to a reference row exceeds factor x
#      the recorded ratio (a uniformly slower runner inflates the
#      reference identically, leaving this ratio untouched; an accidental
#      O(nnz) rebuild on the incremental path drags the ratio up and
#      trips it).
#
# Three incremental rows are guarded:
#
# * `refresh_64_incremental` (LM grouping), factor 2, against the cold
#   pass `refresh_64_cold`;
# * `refresh_2_incremental` (LM grouping, 2 updates a pass), factor 2,
#   against `refresh_64_cold`. A pass this small is the former's per-pass
#   floor; a Step-2 selection or tail emission that scans every bucket or
#   every user again roughly quadruples it at this scale (~0.23 ms
#   against ~0.054 ms), and this rule failed all 5 runs of such a scan
#   and passed all 5 runs of the indexed selection (see the
#   batch-proportional Step-2 selection entry in EXPERIMENTS.md);
# * `refresh_64_incremental_cons` (Consensus grouping), factor 1.5,
#   against `refresh_64_incremental`, which does all of its work except
#   scoring the tail group. Its maintained moment tail turns into a full
#   tail rescore if it regresses, and at this scale that only doubles the
#   pass (1.4-1.7 ms against ~0.8 ms): factor 2 against the cold row let
#   that regression through in 5 of 5 runs of the old code, this rule
#   caught all 6 (see the batch-proportional refresh entry in
#   EXPERIMENTS.md).
#
# This catches algorithmic regressions, not percent-level drift.
#
# The baseline block maps each full row name to its median as recorded
# in the bench output ("<value> <unit>"):
#
#   "bench_guard": {
#     "medians": {
#       "incremental-refresh-2000x200/refresh_64_cold": "4.67 ms", ...
#     }
#   }
#
# usage: bench_guard.sh <bench-output-file> [baseline BENCH_<pr>.json]
set -euo pipefail

BENCH_OUT=${1:?usage: bench_guard.sh <bench-output-file> [baseline BENCH_<pr>.json]}
ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
GROUP="incremental-refresh-2000x200"

# Prints the newest BENCH_<pr>.json under the repository root (highest
# <pr>) that carries a `bench_guard` block.
newest_baseline() {
  python3 - "$ROOT" <<'PY'
import json, pathlib, re, sys

best = None
for path in pathlib.Path(sys.argv[1]).glob("BENCH_*.json"):
    m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    if not m:
        continue
    with open(path, encoding="utf-8") as f:
        if "bench_guard" not in json.load(f):
            continue
    if best is None or int(m[1]) > best[0]:
        best = (int(m[1]), path)
if best:
    print(best[1])
PY
}

BASELINE_FILE=${2:-$(newest_baseline)}
if [ -z "$BASELINE_FILE" ]; then
  echo "bench_guard: no BENCH_*.json under $ROOT has a bench_guard block" >&2
  exit 1
fi
echo "bench_guard: baselines from $BASELINE_FILE"

# Prints "<value> <unit>" for the row named by the key: from the *last*
# `median` line whose first field is exactly the key in a bench output,
# or from the `bench_guard.medians` entry of a BENCH_<pr>.json.
extract() {
  case "$1" in
    *.json)
      python3 - "$1" "$2" <<'PY'
import json, sys

with open(sys.argv[1], encoding="utf-8") as f:
    medians = json.load(f).get("bench_guard", {}).get("medians", {})
value = medians.get(sys.argv[2])
if value:
    print(value)
PY
      ;;
    *)
      awk -v key="$2" '$1 == key && $2 == "median" { v = $3; u = $4 }
        END { if (v != "") print v, u }' "$1"
      ;;
  esac
}

# Converts "<value> <unit>" to integer nanoseconds.
to_ns() {
  awk -v v="$1" -v u="$2" 'BEGIN {
    f = -1;
    if (u == "ns") f = 1;
    else if (u == "µs" || u == "us") f = 1000;
    else if (u == "ms") f = 1000000;
    else if (u == "s") f = 1000000000;
    if (f < 0) exit 2;
    printf "%.0f", v * f;
  }'
}

need() { # file key -> "<ns>" or die with guidance
  local file=$1 key=$2 v u
  read -r v u < <(extract "$file" "$key") || true
  if [ -z "${v:-}" ]; then
    echo "bench_guard: no '$key' median in $file" >&2
    echo "bench_guard: did the quick-scale bench labels change? Update the keys here and the bench_guard block of the newest BENCH_<pr>.json together." >&2
    exit 1
  fi
  to_ns "$v" "$u"
}

# guard <key> <factor> <reference key>: passes unless the row is past
# factor x its baseline in both the absolute and the normalized view.
guard() {
  local key=$1 factor=$2 ref=$3 measured baseline measured_ref baseline_ref limit ratio_bad
  measured=$(need "$BENCH_OUT" "$key")
  baseline=$(need "$BASELINE_FILE" "$key")
  measured_ref=$(need "$BENCH_OUT" "$ref")
  baseline_ref=$(need "$BASELINE_FILE" "$ref")
  limit=$(awk -v b="$baseline" -v f="$factor" 'BEGIN { printf "%.0f", b * f }')
  echo "bench_guard: $key measured ${measured} ns (baseline ${baseline} ns, absolute limit ${factor}x = ${limit} ns)"
  if [ "$measured" -le "$limit" ]; then
    echo "bench_guard: OK — within the absolute limit"
    return 0
  fi
  # Past the absolute limit: only fail if the same-run normalization
  # agrees this is the incremental path regressing, not a slow runner.
  ratio_bad=$(awk -v mi="$measured" -v mr="$measured_ref" \
    -v bi="$baseline" -v br="$baseline_ref" -v factor="$factor" \
    'BEGIN { print (mi / mr > factor * bi / br) ? 1 : 0 }')
  echo "bench_guard: past the absolute limit; normalized check against ${ref##*/}: measured $(awk -v a="$measured" -v b="$measured_ref" 'BEGIN{printf "%.3f", a/b}') vs baseline $(awk -v a="$baseline" -v b="$baseline_ref" 'BEGIN{printf "%.3f", a/b}') (limit ${factor}x)"
  if [ "$ratio_bad" -eq 1 ]; then
    echo "bench_guard: FAIL — $key regressed past ${factor}x in both absolute time and normalized ratio" >&2
    return 1
  fi
  echo "bench_guard: OK — the reference inflated alongside (slow/noisy runner), not an incremental-path regression"
}

status=0
guard "$GROUP/refresh_64_incremental" 2 "$GROUP/refresh_64_cold" || status=1
guard "$GROUP/refresh_2_incremental" 2 "$GROUP/refresh_64_cold" || status=1
guard "$GROUP/refresh_64_incremental_cons" 1.5 "$GROUP/refresh_64_incremental" || status=1
exit $status
