#!/usr/bin/env bash
# Measures a change against its parent on one benchmark workload, in
# alternating pairs:
#
#   scripts/bench_pairs.sh <parent-rev> <change-rev> <workload> <seeds> <pairs>
#   scripts/bench_pairs.sh HEAD~1 HEAD rmw_mix 1,7 5
#
# Each revision is copied out with `git archive` into a fresh directory
# (under $TMPDIR) and runs its own unchanged bench/run.sh, for the run
# length BENCHMARK.json declares. For every seed it runs <pairs> pairs;
# odd pairs run the parent first, even pairs the change. Every run's
# JSON line is kept in runs.jsonl in that directory, tagged with side,
# seed and pair. The summary prints, for every end-to-end metric, each
# side's median and quartiles (Python's exclusive method, as
# bench/hist.go), the change/parent ratio of the medians, and the pairs
# the change won by the metric's direction.
set -euo pipefail
if [ $# -ne 5 ]; then
	sed -n '4,5p' "$0" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 seeds=$4 pairs=$5
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
dir=$(mktemp -d)
for side in parent change; do
	rev=$parent
	[ "$side" = change ] && rev=$change
	mkdir "$dir/$side"
	git archive "$rev" | tar -x -C "$dir/$side"
done
seconds=$(jq '.run_seconds' "$root/BENCHMARK.json")
runs=$dir/runs.jsonl
echo "bench_pairs: $workload, seeds $seeds, $pairs pairs each, ${seconds}s runs; results in $dir" >&2

run() { # side seed pair
	local line
	line=$(cd "$dir/$1" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 2>>"$dir/$1.log" | tail -n 1)
	jq -c --arg side "$1" --argjson seed "$2" --argjson pair "$3" '. + {side: $side, seed: $seed, pair: $pair}' <<<"$line" >>"$runs"
	jq -r '"\(.side) seed \(.seed) pair \(.pair): " + ([.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" "))' <<<"$(tail -n 1 "$runs")" >&2
}

for seed in ${seeds//,/ }; do
	for ((p = 1; p <= pairs; p++)); do
		if ((p % 2)); then
			run parent "$seed" "$p"
			run change "$seed" "$p"
		else
			run change "$seed" "$p"
			run parent "$seed" "$p"
		fi
	done
done

jq -rs --slurpfile decl "$root/BENCHMARK.json" '
	def median: sort | length as $n | if $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
	def quartile($k): sort as $s | ($s | length) as $n
		| ([([(($k * ($n + 1)) / 4 | floor), 1] | max), $n - 1] | min) as $j
		| ($k * ($n + 1) - $j * 4) as $d
		| ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4;
	def stats: if length < 2 then "\(median)" else "\(median) (\(quartile(1))–\(quartile(3)))" end;
	. as $runs
	| "failed/attempted: parent \([$runs[] | select(.side == "parent") | .failed] | add)/\([$runs[] | select(.side == "parent") | .attempted] | add), change \([$runs[] | select(.side == "change") | .failed] | add)/\([$runs[] | select(.side == "change") | .attempted] | add)",
	($decl[0].end_to_end[] | .name as $m | .better as $better
		| [$runs[] | select(.side == "parent") | .metrics[$m].value // empty] as $p
		| [$runs[] | select(.side == "change") | .metrics[$m].value // empty] as $c
		| select(($p | length) > 0 and ($c | length) > 0)
		| [$runs[] | select(.side == "parent")] as $pr
		| ([$pr[] | . as $a | [$runs[] | select(.side == "change" and .seed == $a.seed and .pair == $a.pair)][0] as $b
			| select($b != null)
			| if $better == "higher" then ($b.metrics[$m].value > $a.metrics[$m].value) else ($b.metrics[$m].value < $a.metrics[$m].value) end
			| select(.)] | length) as $wins
		| "\($m): parent \($p | stats), change \($c | stats), change/parent \(($c | median) / ($p | median)), change better in \($wins) of \($pr | length) pairs")
' "$runs"
