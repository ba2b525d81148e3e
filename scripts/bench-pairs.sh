#!/usr/bin/env bash
# Compares this checkout with a base commit on one benchmark workload,
# the way a performance claim here is judged: N pairs of runs (at least
# ten for a verdict), one pair per seed 1..N, with the side that runs
# first alternating, each side running its own benchmark/run.sh for
# BENCHMARK.json's run_seconds. It prints every pair, each side's median
# and quartiles per end-to-end metric of BENCHMARK.json, the pairs the
# change won per metric, and a verdict per metric:
#   gain        the change won at least nine tenths of the pairs (ties
#               count for neither), its median is better than the
#               base's by more than the distance between the base's
#               quartiles, and it failed no larger share of operations;
#   worse       its median is worse than the base's by more than the
#               metric's bound, however widely the base spreads;
#   unresolved  fewer than ten pairs, or the base's quartiles lie
#               further apart than the bound times its median (unless
#               every change run beats every base run);
#   no claim    anything else: the change is inside the base's spread.
#
# The base is checked out in a temporary git worktree, removed on exit.
# Nothing under benchmark/ is edited; each tree builds into its own
# .bench_build/. Needs jq.
#
# Usage: scripts/bench-pairs.sh BASE WORKLOAD [N]
#   make bench-pairs BASE=HEAD~1 W=mixed_rw N=10
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 BASE WORKLOAD [N]" >&2
	exit 2
fi
base=$1 workload=$2 n=${3:-10}
repo=$(git rev-parse --show-toplevel)
spec=$repo/BENCHMARK.json
seconds=$(jq -r .run_seconds "$spec")
# One "name better bound" line per end-to-end metric.
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$spec")
names=$(jq -c '[.end_to_end[].name]' "$spec")

tmp=$(mktemp -d)
cleanup() {
	git -C "$repo" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	git -C "$repo" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git -C "$repo" worktree add --quiet --detach "$tmp/base" "$base"

# run TREE SEED prints the run's last line, its JSON result.
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds "$seconds") | tail -n 1
}

rows=$tmp/rows
: >"$rows"
echo "$workload: $n pairs of ${seconds}s runs, base $(git -C "$repo" rev-parse --short "$base") vs this checkout"
printf '%-5s %-8s %-8s' seed first side
for m in $(jq -r '.[]' <<<"$names"); do printf ' %14s' "$m"; done
printf ' %10s %8s\n' attempted failed
for seed in $(seq 1 "$n"); do
	if [ $((seed % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
	for side in $order; do
		tree=$repo
		[ "$side" = base ] && tree=$tmp/base
		# One row: seed, side, each metric's value (nan when absent),
		# attempted and failed operations.
		row=$(run "$tree" "$seed" | jq -r --arg seed "$seed" --arg side "$side" --argjson names "$names" \
			'[$seed, $side] + [$names[] as $m | (.metrics[$m].value // "nan")] + [.attempted, .failed] | map(tostring) | join(" ")')
		echo "$row" >>"$rows"
		read -r -a f <<<"$row"
		printf '%-5s %-8s %-8s' "$seed" "${order%% *}" "$side"
		for v in "${f[@]:2:${#f[@]}-4}"; do printf ' %14.6g' "$v"; done
		printf ' %10s %8s\n' "${f[-2]}" "${f[-1]}"
	done
done

echo
awk -v metrics="$(paste -sd';' <<<"$metrics")" '
function sortn(a, k,   i, j, t) {
	for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# quantile q of the sorted a[1..k], interpolated between ranks.
function quant(a, k, q,   h, lo) {
	h = (k - 1) * q + 1; lo = int(h)
	return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
BEGIN { nm = split(metrics, ms, ";") }
{
	side = $2
	for (i = 1; i <= nm; i++) v[side, $1, i] = $(2 + i) + 0
	tried[side] += $(3 + nm); fail[side] += $(4 + nm)
	seeds[$1] = 1
}
END {
	fb = tried["base"] ? fail["base"] / tried["base"] : 0
	fc = tried["change"] ? fail["change"] / tried["change"] : 0
	printf "%-14s %-34s %-34s %-7s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict"
	for (i = 1; i <= nm; i++) {
		split(ms[i], p, " "); name = p[1]; higher = p[2] == "higher"; bound = p[3] + 0
		k = 0; wins = 0
		for (s in seeds) {
			b = v["base", s, i]; c = v["change", s, i]
			k++; bs[k] = b; cs[k] = c
			if ((higher && c > b) || (!higher && c < b)) wins++
		}
		sortn(bs, k); sortn(cs, k)
		bm = quant(bs, k, 0.5); cm = quant(cs, k, 0.5)
		bq1 = quant(bs, k, 0.25); bq3 = quant(bs, k, 0.75)
		gain = higher ? cm - bm : bm - cm
		# Every change run beats every base run.
		apart = higher ? cs[1] > bs[k] : cs[k] < bs[1]
		if (k < 10) verdict = "unresolved: fewer than 10 pairs"
		else if (-gain > bound * bm) verdict = "worse beyond the " bound " bound"
		else if (bq3 - bq1 > bound * bm && !apart) verdict = "unresolved: the base spreads wider than the bound"
		else if (wins * 10 >= k * 9 && gain > bq3 - bq1 && fc <= fb) verdict = "gain"
		else if (wins * 10 >= k * 9 && gain > bq3 - bq1) verdict = "no claim: the change fails more operations"
		else verdict = "no claim: inside the spread"
		printf "%-14s %-34s %-34s %-7s %s (%+.1f%%)\n", name,
			sprintf("%.4g [%.4g, %.4g]", bm, bq1, bq3),
			sprintf("%.4g [%.4g, %.4g]", cm, quant(cs, k, 0.25), quant(cs, k, 0.75)),
			wins "/" k, verdict, bm == 0 ? 0 : 100 * (cm - bm) / bm
	}
	printf "failed operations: base %d of %d, change %d of %d\n", fail["base"], tried["base"], fail["change"], tried["change"]
	if (fc > fb) print "the change fails a larger share of operations than the base"
}' "$rows"
