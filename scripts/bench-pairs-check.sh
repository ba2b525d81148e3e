#!/usr/bin/env bash
# Checks every verdict branch of scripts/bench-pairs.sh without running
# the real benchmark. Each case builds a throwaway git repo whose
# benchmark/run.sh prints a scripted result line for each seed: the
# base's table is committed, the change's is left in the working tree,
# and bench-pairs.sh runs against HEAD. The case passes when the verdict
# on the one end-to-end metric (ops_s, higher is better, bound 0.25)
# starts with the expected words. Needs git and jq.
#
# Usage: scripts/bench-pairs-check.sh   (or make bench-pairs-check)
set -euo pipefail

pairs=$(cd "$(dirname "$0")" && pwd)/bench-pairs.sh
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# table VALUE... prints one "ops_s attempted failed" row per seed; a
# value may carry its own counts as ops_s/attempted/failed.
table() {
	local v
	for v in "$@"; do
		IFS=/ read -r ops tried failed <<<"$v"
		echo "$ops ${tried:-100} ${failed:-0}"
	done
}

# check NAME N VERDICT BASE_TABLE CHANGE_TABLE
check() {
	local name=$1 n=$2 want=$3 repo=$tmp/$1
	mkdir -p "$repo/benchmark"
	cat >"$repo/BENCHMARK.json" <<'JSON'
{"run_seconds": 1, "end_to_end": [{"name": "ops_s", "better": "higher", "bound": 0.25}]}
JSON
	cat >"$repo/benchmark/run.sh" <<'RUN'
# Scripted stand-in for a benchmark run: the row of table for --seed.
seed=1
while [ $# -gt 0 ]; do
	[ "$1" = --seed ] && seed=$2
	shift
done
read -r ops tried failed < <(sed -n "${seed}p" "$(dirname "$0")/table")
echo "{\"metrics\": {\"ops_s\": {\"value\": $ops}}, \"attempted\": $tried, \"failed\": $failed}"
RUN
	echo "$4" >"$repo/benchmark/table"
	git -C "$repo" init --quiet
	git -C "$repo" add -A
	git -C "$repo" -c user.name=check -c user.email=check@localhost commit --quiet -m base
	echo "$5" >"$repo/benchmark/table"
	local out verdict
	out=$(cd "$repo" && bash "$pairs" HEAD w "$n")
	verdict=$(awk '$1 == "ops_s" && NF > 3 { sub(/^ops_s +[^ ]+ \[[^]]*\] +[^ ]+ \[[^]]*\] +[^ ]+ +/, ""); print }' <<<"$out")
	if [[ $verdict != "$want"* ]]; then
		echo "bench-pairs-check: $name: verdict \"$verdict\", want \"$want\"" >&2
		echo "$out" >&2
		exit 1
	fi
	echo "bench-pairs-check: $name: $verdict"
}

tight=$(table 100 101 99 100 102 98 100 101 99 100)
wide=$(table 50 150 60 140 70 130 55 145 65 135)

check gain 10 "gain" "$tight" "$(table 120 121 119 120 122 118 120 121 119 120)"
check worse 10 "worse beyond the 0.25 bound" "$tight" "$(table 60 61 59 60 62 58 60 61 59 60)"
check worse-wide-base 10 "worse beyond the 0.25 bound" "$wide" "$(table 30 31 29 30 32 28 30 31 29 30)"
check few-pairs 3 "unresolved: fewer than 10 pairs" "$tight" "$(table 120 121 119)"
check wide-base 10 "unresolved: the base spreads wider than the bound" "$wide" "$(table 100 101 99 100 102 98 100 101 99 100)"
check inside-spread 10 "no claim: inside the spread" "$tight" "$(table 101 100 99 101 100 99 101 100 100 99)"
check fails-more 10 "no claim: the change fails more operations" "$tight" \
	"$(table 120/100/5 121 119 120 122 118 120 121 119 120)"
echo "bench-pairs-check: PASS"
