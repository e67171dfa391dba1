#!/usr/bin/env bash
# ab_perfbench.sh <base-ref> <workload> <pairs> — same-machine A/B of the
# end-to-end benchmark: the working tree (candidate) against <base-ref>.
#
#   scripts/ab_perfbench.sh HEAD~1 cold-analytic 10
#
# <base-ref> is exported with git archive into a temporary directory and
# built there; the candidate is built from the current directory (the
# repository root, uncommitted changes included). Each pair runs
# `bash perfbench/run.sh --trace 0` once on each side with the pair's
# number as the seed, alternating which side goes first, so slow drift
# of the machine lands on both sides. The two sides never run at once.
#
# Prints, per pair and as the median over the pairs, the four bounded
# metrics of both sides with the candidate's relative change, how many
# pairs the candidate won per metric, each side's quartiles (nearest
# rank, as perfbench computes them), and each side's total failed
# operations. Exits non-zero if a run fails or any operation failed.
#
# Env: AB_SECONDS (default 30) is each run's --seconds; AB_KEEP=1 keeps
# the temporary directory (raw run logs, the base tree) for inspection.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 <base-ref> <workload> <pairs>" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3
seconds=${AB_SECONDS:-30}
root=$(pwd)
if [ ! -f "$root/perfbench/run.sh" ]; then
	echo "ab_perfbench: run from the repository root (perfbench/run.sh not found)" >&2
	exit 2
fi
case $pairs in '' | *[!0-9]* | 0)
	echo "ab_perfbench: <pairs> must be a positive integer" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_perfbench.XXXXXX")
cleanup() {
	if [ "${AB_KEEP:-0}" = 1 ]; then
		echo "ab_perfbench: kept $tmp" >&2
	else
		rm -rf "$tmp"
	fi
}
trap cleanup EXIT

mkdir "$tmp/base"
git archive "$ref" | tar -x -C "$tmp/base"
echo "ab_perfbench: base $(git rev-parse --short "$ref") vs working tree, $workload, $pairs pairs of ${seconds}s runs" >&2

# run <side> <dir> <seed>: one benchmark run; appends "side seed metric
# value" lines to $tmp/results.
run() {
	local side=$1 dir=$2 seed=$3 log="$tmp/$1.$3.log"
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$log" 2>&1; then
		echo "ab_perfbench: $side run, seed $seed failed:" >&2
		tail -5 "$log" >&2
		exit 1
	fi
	awk -v side="$side" -v seed="$seed" '
		$1 == "metric" && ($2 == "query_p50_ms" || $2 == "goodput_ops" || $2 == "setup_s" || $2 == "peak_rss_mb") {
			print side, seed, $2, $3
		}' "$log" >>"$tmp/results"
	tail -1 "$log" | sed -n 's/.*"failed":\([0-9]*\).*/'"$side $seed failed "'\1/p' >>"$tmp/results"
}

for seed in $(seq 1 "$pairs"); do
	if [ $((seed % 2)) = 1 ]; then
		run base "$tmp/base" "$seed"
		run cand "$root" "$seed"
	else
		run cand "$root" "$seed"
		run base "$tmp/base" "$seed"
	fi
	echo "ab_perfbench: pair $seed/$pairs done" >&2
done

awk -v pairs="$pairs" '
	# q(list, p): nearest-rank percentile p of a space-separated list.
	function q(list, p,   n, a, i, j, t) {
		n = split(list, a, " ")
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		i = int(p * n / 100); if (i < p * n / 100) i++
		return a[i < 1 ? 1 : i]
	}
	function delta(b, c) { return b == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (c - b) / b) }
	{ v[$1, $2, $3] = $4 }
	END {
		split("query_p50_ms goodput_ops setup_s peak_rss_mb", names, " ")
		split("lower higher lower lower", better, " ")
		printf "%-14s %-6s %12s %12s %9s\n", "metric", "pair", "base", "cand", "change"
		for (m = 1; m <= 4; m++) {
			name = names[m]; bl = ""; cl = ""; wins = 0
			for (p = 1; p <= pairs; p++) {
				b = v["base", p, name]; c = v["cand", p, name]
				printf "%-14s %-6d %12.4g %12.4g %9s\n", name, p, b, c, delta(b, c)
				bl = bl " " b; cl = cl " " c
				if ((better[m] == "lower" && c < b) || (better[m] == "higher" && c > b)) wins++
			}
			bm = q(bl, 50); cm = q(cl, 50)
			printf "%-14s %-6s %12.4g %12.4g %9s   candidate better in %d/%d pairs (%s is better)\n",
				name, "median", bm, cm, delta(bm, cm), wins, pairs, better[m]
			printf "%-14s %-6s %12s %12s\n", name, "q1-q3",
				sprintf("%.4g-%.4g", q(bl, 25), q(bl, 75)), sprintf("%.4g-%.4g", q(cl, 25), q(cl, 75))
		}
		for (p = 1; p <= pairs; p++) { bf += v["base", p, "failed"]; cf += v["cand", p, "failed"] }
		printf "failed         base %d, cand %d\n", bf, cf
		exit (bf + cf > 0)
	}' "$tmp/results"
