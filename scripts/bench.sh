#!/usr/bin/env bash
# bench.sh — run the perf benchmark suite and emit BENCH_<pr>.json: the
# stage-1 kernel microbenchmarks (allocs/op is the headline number) plus the
# end-to-end macro benchmarks, formatted by cmd/benchfmt against the
# committed pre-change seed numbers. CI-runnable; override the iteration
# counts for a quick smoke:
#
#   scripts/bench.sh                         # full run, writes BENCH_5.json
#   KERNEL_TIME=5x MACRO_TIME=1x COMM_TIME=10x scripts/bench.sh OUT=/dev/null
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${PR:-10}"
OUT="${OUT:-BENCH_${PR}.json}"
SEED="${SEED:-scripts/bench_seed_pr${PR}.json}"
KERNEL_TIME="${KERNEL_TIME:-50x}"
MACRO_TIME="${MACRO_TIME:-3x}"
COMM_TIME="${COMM_TIME:-100x}"
INGEST_TIME="${INGEST_TIME:-5x}"
OOCORE_TIME="${OOCORE_TIME:-1x}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== kernel microbenchmarks (-benchtime $KERNEL_TIME) ==" >&2
go test -run '^$' -bench '^BenchmarkKernel' -benchtime "$KERNEL_TIME" -benchmem \
    ./internal/core/ | tee -a "$raw" >&2

echo "== collective engine benchmarks (-benchtime $COMM_TIME) ==" >&2
go test -run '^$' \
    -bench '^(BenchmarkAlltoallvSeq|BenchmarkAlltoallvOverlap)$' \
    -benchtime "$COMM_TIME" -benchmem ./internal/comm/ | tee -a "$raw" >&2

echo "== ingest & partition benchmarks (-benchtime $INGEST_TIME) ==" >&2
go test -run '^$' -bench '^(BenchmarkIngestEdgeList|BenchmarkIngestSharded)$' \
    -benchtime "$INGEST_TIME" -benchmem ./internal/graph/ | tee -a "$raw" >&2
go test -run '^$' -bench '^BenchmarkPartitionBuild$' \
    -benchtime "$INGEST_TIME" -benchmem ./internal/partition/ | tee -a "$raw" >&2

echo "== out-of-core benchmarks (-benchtime $INGEST_TIME / $OOCORE_TIME) ==" >&2
# The PR-9 numbers: compressed v2 decode throughput and on-disk size
# (file-B), the two-pass streaming partitioner against the in-RAM builder,
# and the full streamed generate -> partition -> solve pipeline with the
# heap high-water (heap-MB) as the acceptance metric. Set OOCORE_SCALE=23
# for the committed >= 10^8-edge run (see EXPERIMENTS.md — ~26 min on one
# core); the default scale-14 keeps CI fast.
go test -run '^$' -bench '^(BenchmarkShardedV2Read|BenchmarkPartitionBuildStreaming)$' \
    -benchtime "$INGEST_TIME" -benchmem ./internal/graph/ ./internal/partition/ | tee -a "$raw" >&2
go test -run '^$' -bench '^BenchmarkOocorePipeline$' -timeout 12h \
    -benchtime "$OOCORE_TIME" -benchmem . | tee -a "$raw" >&2

echo "== merge benchmarks (-benchtime $MACRO_TIME) ==" >&2
# Stage-2 distributed merge (PR 10): the seed map-of-maps implementation
# against the zero-map counting-sort pipeline on the same converged world.
# ns/op, allocs/op, and wire-B/op (per-rank collective payload, from the
# trace collective counters) are the acceptance metrics.
go test -run '^$' -bench '^BenchmarkMerge(Seed|Preagg)$' -benchtime "$MACRO_TIME" -benchmem \
    ./internal/core/ | tee -a "$raw" >&2

echo "== rebalance macro benchmarks (-benchtime $MACRO_TIME) ==" >&2
# Off/Greedy/Ideal on the planted-hub workload; sim-ms/op (cumulative
# simulated parallel time) is the headline number — the greedy policy's win
# over the static baseline is the PR-7 acceptance metric.
go test -run '^$' -bench '^BenchmarkRebalance' -benchtime "$MACRO_TIME" -benchmem \
    ./internal/core/ | tee -a "$raw" >&2

echo "== macro benchmarks (-benchtime $MACRO_TIME) ==" >&2
go test -run '^$' -bench '^(BenchmarkDistributedLouvain|BenchmarkFig8Breakdown)$' \
    -benchtime "$MACRO_TIME" -benchmem . | tee -a "$raw" >&2

echo "== serving benchmarks (-benchtime $MACRO_TIME) ==" >&2
# The resident-service numbers (PR 8): the multi-tenant latency/throughput
# sweep (req/s, p50-µs, p99-µs at each offered rate) and the incremental-
# update-vs-full-resolve bracket — the incremental path's win is the PR-8
# acceptance metric.
go test -run '^$' -bench '^(BenchmarkServeLoad|BenchmarkIncrementalUpdate|BenchmarkFullResolve)$' \
    -benchtime "$MACRO_TIME" -benchmem ./internal/loadgen/ | tee -a "$raw" >&2

seedArgs=()
if [ -f "$SEED" ]; then
    seedArgs=(-seed "$SEED")
else
    echo "note: no seed file $SEED; emitting current numbers only" >&2
fi
go run ./cmd/benchfmt -pr "$PR" "${seedArgs[@]}" < "$raw" > "$OUT"
echo "wrote $OUT" >&2
