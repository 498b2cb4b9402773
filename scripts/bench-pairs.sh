#!/usr/bin/env bash
# Paired benchmark runs of two checkouts: N alternating parent/change pairs
# of one workload, then per-metric medians, quartiles and wins.
#
#   scripts/bench-pairs.sh [--seconds S] [--out FILE] PARENT CHANGE WORKLOAD FIRST_SEED N
#
# PARENT and CHANGE are repository trees (e.g. a `git clone` of the parent
# commit and the working tree).  Pair i runs `benchmark/run.sh --workload
# WORKLOAD --seed FIRST_SEED+i --seconds S` (default 40) in both trees, the
# parent first in even pairs and the change first in odd ones, so a slow
# phase of the host lands on both sides alike.  Every run's result line is
# appended to FILE (default bench-pairs-WORKLOAD-FIRST_SEED.jsonl) as
# {"pair","seed","side","result"}; each run's stderr goes to FILE.log.
#
# The summary gives, per end-to-end metric of BENCHMARK.json: the parent's
# median and quartiles, the change's median, the ratio of the medians, the
# pairs the change won (ties count for neither side) and a verdict,
# followed by the attempted, failed and `correct` totals of each side.
# The verdict is `gain` when the change won at least 9/10 of the pairs and
# its median lies beyond the parent's interquartile range on the better
# side, `worse` when its median is worse than the parent's by more than the
# metric's BENCHMARK.json bound, and `unresolved` otherwise.  Given an
# existing FILE and N = 0, it only summarises.
#
# Building the benchmark rewrites benchmark/Cargo.lock in each tree; restore
# it with `git checkout benchmark/Cargo.lock` afterwards.
set -euo pipefail

seconds=40
out=""
while [[ $# -gt 0 && "$1" == --* ]]; do
    case "$1" in
        --seconds) seconds="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "bench-pairs: unknown option $1" >&2; exit 2 ;;
    esac
done
if [[ $# -ne 5 ]]; then
    sed -n '4,5p' "${BASH_SOURCE[0]}" | sed 's/^# *//' >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
first_seed="$4"
pairs="$5"
out="${out:-bench-pairs-$workload-$first_seed.jsonl}"
[[ "$out" == /* ]] || out="$PWD/$out"
spec="$change/BENCHMARK.json"

run_side() { # side tree seed pair
    local line
    line="$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" \
        --seconds "$seconds" 2>>"$out.log" | tail -n 1)"
    jq -c --arg side "$1" --argjson seed "$3" --argjson pair "$4" \
        '{pair: $pair, seed: $seed, side: $side, result: .}' <<<"$line" >>"$out"
    echo "bench-pairs: pair $4 seed $3 $1 done" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run_side parent "$parent" "$seed" "$i"
        run_side change "$change" "$seed" "$i"
    else
        run_side change "$change" "$seed" "$i"
        run_side parent "$parent" "$seed" "$i"
    fi
done

jq -rs --slurpfile spec "$spec" '
  # Linear-interpolation quantile of a numeric array.
  def q(p): sort as $s | ($s | length) as $n
    | if $n == 0 then null
      else (($n - 1) * p) as $h | ($h | floor) as $lo
        | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo])
      end;
  def fmt: if . == null then "-" elif fabs >= 100 then (. * 10 | round / 10 | tostring)
           elif fabs >= 1 then (. * 1000 | round / 1000 | tostring)
           else (. * 1000000 | round / 1000000 | tostring) end;
  def side($s): map(select(.side == $s));
  (side("parent")) as $p | (side("change")) as $c
  | ([$p[].pair] - ([$p[].pair] - [$c[].pair])) as $paired
  | "metric           parent median [q1, q3]            change median   ratio    wins   verdict",
    ($spec[0].end_to_end[] | .name as $m | .better as $better | .bound as $bound
      | ($p | map(.result.metrics[$m].value)) as $pv
      | ($c | map(.result.metrics[$m].value)) as $cv
      | ([$paired[] as $i
          | ($p[] | select(.pair == $i) | .result.metrics[$m].value) as $a
          | ($c[] | select(.pair == $i) | .result.metrics[$m].value) as $b
          | select(if $better == "lower" then $b < $a else $b > $a end)] | length) as $wins
      | ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
      | ($pv | q(0.25)) as $q1 | ($pv | q(0.75)) as $q3
      | (if $pm == null or $cm == null then "-"
         elif $wins * 10 >= 9 * ($paired | length) and ($paired | length) > 0
              and (if $better == "lower" then $cm < $q1 else $cm > $q3 end) then "gain"
         elif (if $better == "lower" then $cm > $pm * (1 + $bound)
               else $cm < $pm * (1 - $bound) end) then "worse"
         else "unresolved" end) as $verdict
      | "\($m | . + " " * (16 - length)) \($pm | fmt) [\($q1 | fmt), \($q3 | fmt)]"
        + " " * ([1, 33 - ("\($pm | fmt) [\($q1 | fmt), \($q3 | fmt)]" | length)] | max)
        + "\($cm | fmt)" + " " * ([1, 16 - ($cm | fmt | length)] | max)
        + "\(if $pm == null or $pm == 0 or $cm == null then "-" else ($cm / $pm * 1000 | round / 1000 | tostring) end)"
        + "    \($wins)/\($paired | length)" + " " * ([1, 7 - ("\($wins)/\($paired | length)" | length)] | max)
        + "\($verdict) (\($better) is better)"),
    ("attempted: parent \($p | map(.result.attempted) | add // 0), change \($c | map(.result.attempted) | add // 0)"),
    ("failed:    parent \($p | map(.result.failed) | add // 0), change \($c | map(.result.failed) | add // 0)"),
    ("correct:   parent \($p | map(select(.result.correct)) | length)/\($p | length), change \($c | map(select(.result.correct)) | length)/\($c | length)")
' "$out"
