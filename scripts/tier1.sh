#!/usr/bin/env bash
# tier1.sh — the repo's tier-1 verification flow, as documented in
# ROADMAP.md. CI and humans run this one command before merging:
#
#   ./scripts/tier1.sh            # the full flow
#   ./scripts/tier1.sh --quick    # build + vet + test only (fast pre-push)
#
# Each step must pass; the script stops at the first failure, and failures
# propagate through pipes (pipefail).
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
if [ "${1:-}" = "--quick" ]; then
    QUICK=1
fi

set -x
go build ./...
go vet ./...
# Formatting gate: gofmt must have nothing to rewrite in any Go file.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    printf 'tier1: gofmt -l lists files that need formatting:\n%s\n' "$unformatted" >&2
    exit 1
fi
go test ./...

if [ "$QUICK" = 1 ]; then
    exit 0
fi

go test -race ./...
# Crash-recovery end to end: kill -9 a journaling dispatcher mid-workload,
# restart it on the same journal, and require exactly-once delivery.
go test -run='TestBinariesCrashRecovery' -count=1 .
# Observability end to end: scrape every daemon's /metrics (dispatcher,
# executor, forwarder, submit client) and strictly validate the exposition
# format parses; merge real cross-process span dumps and require the
# corrected stage durations to partition each task's e2e latency.
go test -run='TestBinariesMetricsExposition|TestBinariesSpanMergeAcrossProcesses' -count=1 .
# Petascale headline: the 1M-simulated-executor dispatch-tree run, replayed
# twice with bit-identical digests. It rides the plain test pass above too
# (it is skipped under -short and -race); the explicit run here makes a
# skip regression fail loudly instead of silently shrinking coverage.
go test -run='TestTreeMillionExecutors' -count=1 -v ./internal/simfalkon/
# Short fuzz pass over the journal decoder: it must never panic and never
# fabricate records, whatever bytes a torn tail left behind.
go test -run='^$' -fuzz=FuzzJournalDecode -fuzztime=5s ./internal/wal/
# Short fuzz pass over the per-task body codecs: wherever the fast parser
# accepts bytes, encoding/json must accept them and decode the same value.
go test -run='^$' -fuzz=FuzzBodyCodec -fuzztime=5s ./internal/fproto/
# Compile-and-run every benchmark exactly once, so bitrot in benchmark-only
# code fails tier 1 instead of the next perf investigation.
go test -run='^$' -bench=. -benchtime=1x ./...
