#!/usr/bin/env sh
# bench_snapshot.sh <output.json> — run the tracked benchmark set and emit
# a JSON snapshot (the bench trajectory record; see README.md and
# CHANGES.md). Run from the repo root; `make bench` wraps this.
#
# Each benchmark runs COUNT times (default 5) and the snapshot keeps the
# per-benchmark minimum ns/op (and its memory columns): the minimum is the
# least noise-contaminated estimate on a shared container, where mean or
# single-shot numbers drift with neighbor load (BENCH_pr5 recorded a
# phantom 17% Fig1a "regression" that was purely container noise). The go
# version and load context are recorded so a reader can judge a snapshot's
# trustworthiness.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: scripts/bench_snapshot.sh <output.json>" >&2
    echo "(the output name is the trajectory record's identity — no default," >&2
    echo " so a new PR cannot silently overwrite the previous PR's snapshot)" >&2
    exit 2
fi
out=$1
benchtime=${BENCHTIME:-3x}
count=${COUNT:-5}
pattern='^(BenchmarkFig1a|BenchmarkFig5a|BenchmarkAlgorithmGrouping|BenchmarkServiceCold|BenchmarkServiceWarm|BenchmarkServiceResident|BenchmarkServiceInsert|BenchmarkColumnarCategorize|BenchmarkColumnarChecker|BenchmarkColumnarAppend|BenchmarkPreparedCold|BenchmarkPreparedRun|BenchmarkPreparedResident|BenchmarkStreamFirstResult|BenchmarkWatchInsert|BenchmarkInsertLoop|BenchmarkInsertBatch|BenchmarkResidentExtend|BenchmarkResidentRebuild|BenchmarkMaintainedDelete|BenchmarkDeleteRecompute|BenchmarkWindowSweep|BenchmarkShardedQuery|BenchmarkWarmRestart|BenchmarkCSVReingest)$'
# Benchmarks tracked outside the root package: the scheduling acceptance
# benchmark (ROADMAP item 3) lives with the verification kernel.
extra_pkg='./internal/core'
extra_pattern='^(BenchmarkSkewedCell|BenchmarkVerifyMaybeCell|BenchmarkAnyDominatorsShard)$'

goversion=$(go version)
loadavg=$(cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || sysctl -n vm.loadavg 2>/dev/null || echo unknown)
ncpu=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo unknown)

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
go test -run xxx -bench "$pattern" -benchtime "$benchtime" -count "$count" -benchmem . | tee "$tmp"
go test -run xxx -bench "$extra_pattern" -benchtime "$benchtime" -count "$count" -benchmem "$extra_pkg" | tee -a "$tmp"

awk -v benchtime="$benchtime" -v count="$count" \
    -v goversion="$goversion" -v loadavg="$loadavg" -v ncpu="$ncpu" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    # Columns are keyed by unit, not position: a benchmark that reports a
    # custom metric (b.ReportMetric) inserts extra "<value> <unit>" pairs
    # between ns/op and the -benchmem columns.
    name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
    ns = ""; by = 0; al = 0; im = ""
    for (f = 3; f <= NF; f++) {
        if ($f == "ns/op") ns = $(f - 1)
        else if ($f == "B/op") by = $(f - 1)
        else if ($f == "allocs/op") al = $(f - 1)
        else if ($f == "r1_imbalance") im = $(f - 1)
    }
    if (ns != "" && (!(name in best) || ns + 0 < best[name] + 0)) {
        best[name] = ns; iter[name] = $2; bytes[name] = by; allocs[name] = al
        imbal[name] = im
    }
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench_snapshot.sh\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"count\": %d,\n", count
    printf "  \"selection\": \"min ns/op of %d runs\",\n", count
    printf "  \"go_version\": \"%s\",\n", goversion
    printf "  \"loadavg\": \"%s\",\n", loadavg
    printf "  \"ncpu\": \"%s\",\n", ncpu
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        extra = (imbal[name] != "" ? sprintf(", \"r1_imbalance\": %s", imbal[name]) : "")
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}%s\n",
               name, iter[name], best[name], bytes[name], allocs[name], extra, (i < n ? "," : "")
    }
    printf "  ]\n}\n"
}' "$tmp" > "$out"

echo "wrote $out (best of $count runs)"
