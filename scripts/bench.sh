#!/usr/bin/env sh
# bench.sh — run the evaluator benchmark suite and record the results.
#
# Runs the evaluator-level benchmarks (the paper queries E3–E7, the
# E8 analyze-string queries II.1/III.1 at 10×/100× scale, the P4
# analyze-string overlay scaling fixtures, the P9 path-pipeline
# fixtures, the P10 indexed-descendant fixtures, the
# P11 early-exit/FLWOR cursor fixtures, the P12 copy-on-write
# update fixtures, the P13 durable-update fixtures, the WAL
# durable-update path, the P14 predicate-scan fixtures, the per-node
# existence-probe fixtures (BenchmarkLeafPredicate), the P16
# multi-predicate and binding-run fixtures, the P17 query-after-update
# fixtures, the P18 recovery fixtures, the E9 paper-read request
# mix of the load benchmark, per request, and its per-tuple structural
# tests on warm versions, BenchmarkStructuralTests) with -count
# repetitions, prints the raw `go test -bench` output, and writes the
# best (minimum ns/op) run per benchmark to a JSON file so the perf
# trajectory is diffable in git.
# The JSON's _meta records the go version, the machine's online CPU
# count (nproc) and the GOMAXPROCS the benchmarks ran with.
#
# Usage:
#   scripts/bench.sh [-count N] [-bench REGEX] [-out FILE]
#
# Defaults: -count 5, the evaluator benchmark set, -out BENCH_eval.json.
set -eu

COUNT=5
BENCH='BenchmarkOpenCold|BenchmarkOpenFirstQuery|BenchmarkQuery|BenchmarkOverlayQueries|BenchmarkAnalyzeStringScaling|BenchmarkPathPipeline|BenchmarkExample1AnalyzeString|BenchmarkIndexedDescendant|BenchmarkEarlyExit|BenchmarkFLWORJoin|BenchmarkUpdateSmallEdit|BenchmarkUpdateLargestHier|BenchmarkUpdateReparse|BenchmarkUpdateExpression|BenchmarkUpdateDurable|BenchmarkPredicateScan|BenchmarkLeafPredicate|BenchmarkPlanChoice|BenchmarkQueryAfterUpdate|BenchmarkRecovery|BenchmarkPaperRead|BenchmarkStructuralTests'
OUT=BENCH_eval.json
while [ $# -gt 0 ]; do
	case "$1" in
	-count) COUNT=$2; shift 2 ;;
	-bench) BENCH=$2; shift 2 ;;
	-out) OUT=$2; shift 2 ;;
	*) echo "usage: $0 [-count N] [-bench REGEX] [-out FILE]" >&2; exit 2 ;;
	esac
done

cd "$(dirname "$0")/.."
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" -timeout 0 . | tee "$TMP"
# sh has no pipefail: a failed or killed run shows up as a FAIL line,
# and must not overwrite the record with a partial result.
if grep -q '^FAIL' "$TMP"; then
	echo "benchmarks failed; $OUT left unchanged" >&2
	exit 1
fi

GOVER=$(go version | awk '{print $3}')
NPROC=$(getconf _NPROCESSORS_ONLN)
awk -v count="$COUNT" -v gover="$GOVER" -v nproc="$NPROC" '
BEGIN { procs = 1 } # go test adds no suffix when GOMAXPROCS is 1
/^Benchmark/ {
	name = $1
	# The -N suffix go test appends to every name is GOMAXPROCS.
	if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		if ($i == "B/op") bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!(name in minns) || ns + 0 < minns[name] + 0) {
		minns[name] = ns; mb[name] = bytes; ma[name] = allocs
	}
	if (!(name in seen)) { seen[name] = 1; order[++n] = name }
}
END {
	printf "{\n"
	printf "  \"_meta\": {\"go\": \"%s\", \"count\": %d, \"stat\": \"min\", \"nproc\": %d, \"gomaxprocs\": %d},\n", gover, count, nproc, procs
	for (i = 1; i <= n; i++) {
		nm = order[i]
		printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			nm, minns[nm], (mb[nm] == "" ? 0 : mb[nm]), (ma[nm] == "" ? 0 : ma[nm]), (i < n ? "," : "")
	}
	printf "}\n"
}' "$TMP" >"$OUT"

# Engine-health numbers next to the latency numbers: a fixed query
# burst (scripts/metricsprobe) reports the compile cache hit rate and
# name-index build counts from the metrics registry, merged into the
# JSON under "_metrics" so cache regressions are diffable in git too.
METRICS=$(go run ./scripts/metricsprobe)
awk -v metrics="$METRICS" 'NR == 1 { print; printf "  \"_metrics\": %s,\n", metrics; next } { print }' \
	"$OUT" >"$TMP" && cp "$TMP" "$OUT"

echo "wrote $OUT"
