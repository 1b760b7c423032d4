#!/bin/sh
# Alternating paired runs of the timed benchmark in two checkouts:
#
#   sh bench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS | --ops N]
#
# Pair i (0 .. PAIRS-1) runs `sh bench/perf/run.sh --workload WORKLOAD
# --seed (100 + i)` once in each checkout, the parent first on even pairs
# and the change first on odd ones, for SECONDS each (default 25) or for a
# fixed N ops.  It prints one line per run with the four end-to-end
# metrics and the run's op count, then for each metric both sides'
# median and quartiles, the change/parent ratio of the medians and the
# number of pairs the change won (by the metric's "better" direction in
# CHANGE_DIR/BENCHMARK.json).
# Needs jq.  Its output is timing, so no test runs it.
set -eu

if [ $# -lt 4 ]; then
  echo "usage: sh bench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SECONDS | --ops N]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
case "${1:-}" in
  --ops) budget="--ops ${2:?--ops needs a count}" ;;
  "") budget="--seconds 25" ;;
  *) budget="--seconds $1" ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

for dir in "$parent" "$change"; do
  (cd "$dir" && DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/perf.exe) >&2
done

# one run: SIDE DIR PAIR; appends {"side", "pair", "seed", ...result} to runs.jsonl
run() {
  seed=$((100 + $3))
  # shellcheck disable=SC2086
  line=$(cd "$2" && sh bench/perf/run.sh --workload "$workload" --seed "$seed" \
    $budget --out "$tmp/out-$1" 2>/dev/null | tail -n 1)
  echo "$line" | jq -c --arg side "$1" --argjson pair "$3" --argjson seed "$seed" \
    '{side: $side, pair: $pair, seed: $seed} + .' >> "$tmp/runs.jsonl"
  echo "$line" | jq -r --arg side "$1" --argjson pair "$3" --argjson seed "$seed" \
    '"pair \($pair) seed \($seed) \($side)\t"
     + (.metrics | to_entries | map("\(.key)=\(.value.value)") | join(" "))
     + " ops=\(.attempted) correct=\(.correct) failed=\(.failed)"'
}

i=0
while [ "$i" -lt "$pairs" ]; do
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  i=$((i + 1))
done

jq -r -s --slurpfile bench "$change/BENCHMARK.json" '
  def quantile(p):
    sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $lo
    | $s[$lo] + ($h - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
  def side(s): map(select(.side == s));
  . as $runs
  | $bench[0].end_to_end[]
  | .name as $m | .better as $better
  | [$runs | side("parent")[] | .metrics[$m].value] as $p
  | [$runs | side("change")[] | .metrics[$m].value] as $c
  | [$runs | group_by(.pair)[]
      | (side("parent")[0].metrics[$m].value) as $pv
      | (side("change")[0].metrics[$m].value) as $cv
      | select(if $better == "higher" then $cv > $pv else $cv < $pv end)]
    | length as $won
  | "\($m) (\($better) is better)",
    "  parent median \($p | quantile(0.5)) q1 \($p | quantile(0.25)) q3 \($p | quantile(0.75))",
    "  change median \($c | quantile(0.5)) q1 \($c | quantile(0.25)) q3 \($c | quantile(0.75))",
    "  change/parent \(($c | quantile(0.5)) / ($p | quantile(0.5))), won \($won)/\($p | length) pairs"
' "$tmp/runs.jsonl"
