#!/usr/bin/env bash
# Observability-overhead gate: the e2e throughput benchmark with tracing
# AND metrics DISABLED must stay within the given tolerance of the
# committed BENCH_e2e.json baseline on the stress-100k DHA row (the row
# most sensitive to per-event coordinator overhead). This is the
# "zero-cost when disabled" witness: the instrumented binary, with no
# trace configured and no metrics registry enabled, pays only a
# pointer-null check per trace site and a single branch per metric site.
#
# Usage: scripts/check_trace_overhead.sh [tolerance] [journal_tolerance]
#   tolerance — allowed relative slowdown, default 0.05 (5%). CI runners
#   with noisy neighbours can pass a larger value.
#   journal_tolerance — allowed slowdown for the journal-ENABLED run
#   relative to this machine's fresh journal-disabled measurement (not
#   the committed baseline, so the envelope measures journal overhead
#   rather than runner drift), default 0.60 (60%): encoding, digesting
#   and buffering ~34 bytes per delivered event (plus scheduler decision
#   notes) is paid for, but bounded — the journal is the most verbose
#   observability layer, recording every delivery. The journal-disabled runs above stay
#   under the strict envelope — a `None` journal tap is a null check per
#   delivered event, and the bench-smoke alloc gate (exact, zero
#   steady-state allocations under --features alloc-count) covers the
#   disabled path's allocation behaviour unchanged.
#
# The benchmark binary rewrites BENCH_e2e.json in the working directory, so
# the committed baseline is read *before* the run. Two runs are compared:
# the default one (wall-clock gated) and a --verify run (every delivery
# checked against the reference binary heap, counters reconciled), which
# must reproduce the default run's stress-100k makespan bit-for-bit —
# checking a run must not change it.
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance="${1:-0.05}"
journal_tolerance="${2:-0.60}"

extract() {
  awk -F'"wall_s": ' '
    /"workload": "stress-100k"/ && /"scheduler": "DHA"/ {
      split($2, a, ","); print a[1]; exit
    }' "$1"
}

baseline=$(extract BENCH_e2e.json)
if [ -z "$baseline" ]; then
  echo "error: no stress-100k DHA row in committed BENCH_e2e.json" >&2
  exit 1
fi

extract_makespan() {
  awk -F'"makespan_s": ' '
    /"workload": "stress-100k"/ && /"scheduler": "DHA"/ {
      split($2, a, ","); print a[1]; exit
    }' "$1"
}

gate() {
  local label="$1" current="$2" tol="${3:-$tolerance}" base="${4:-$baseline}"
  echo "stress-100k DHA wall [$label]: baseline ${base}s, current ${current}s (tolerance ${tol})"
  awk -v base="$base" -v cur="$current" -v tol="$tol" 'BEGIN {
    limit = base * (1 + tol)
    if (cur > limit) {
      printf "FAIL: %.3fs exceeds %.3fs (baseline %.3fs + %.0f%%)\n", cur, limit, base, tol * 100
      exit 1
    }
    printf "OK: %.3fs <= %.3fs\n", cur, limit
  }'
}

echo "==> running e2e throughput benchmark (tracing and metrics disabled)"
cargo run --release -q -p unifaas-bench --bin e2e_throughput -- --smoke

current=$(extract BENCH_e2e.json)
makespan_single=$(extract_makespan BENCH_e2e.json)
git checkout -- BENCH_e2e.json 2>/dev/null || true
gate "default" "$current"
# The journal-enabled gate below compares against this machine's fresh
# disabled measurement, not the committed baseline, so it measures
# journal overhead rather than runner drift.
disabled_wall="$current"

# A verify run keeps the binary heap as the calendar queue's oracle on
# every delivery (and panics at the first disagreement); it must produce
# a bit-identical simulated outcome. No wall-clock gate here — checking
# costs time and is only required to be *correct*, not fast.
echo "==> running e2e throughput benchmark (--verify)"
cargo run --release -q -p unifaas-bench --bin e2e_throughput -- --smoke --verify

makespan_verify=$(extract_makespan BENCH_e2e.json)
git checkout -- BENCH_e2e.json 2>/dev/null || true

if [ "$makespan_single" != "$makespan_verify" ]; then
  echo "FAIL: --verify changed stress-100k DHA makespan" \
       "(${makespan_single}s -> ${makespan_verify}s)" >&2
  exit 1
fi
echo "OK: verified-run makespan identical (${makespan_verify}s)"

# Journal-ENABLED envelope: the run journal records every delivered
# event (34 bytes, buffered sequential writes plus decision notes). It
# observes delivery order but must never steer it, so the journaled run
# must reproduce the makespan bit-for-bit while staying inside the
# looser journal_tolerance wall-clock envelope.
echo "==> running e2e throughput benchmark (run journal enabled)"
jdir=$(mktemp -d)
trap 'rm -rf "$jdir"' EXIT
cargo run --release -q -p unifaas-bench --bin e2e_throughput -- \
  --smoke --journal "$jdir/e2e"

current=$(extract BENCH_e2e.json)
makespan_journal=$(extract_makespan BENCH_e2e.json)
git checkout -- BENCH_e2e.json 2>/dev/null || true
gate "journal-enabled" "$current" "$journal_tolerance" "$disabled_wall"

if [ "$makespan_single" != "$makespan_journal" ]; then
  echo "FAIL: enabling the run journal changed stress-100k DHA makespan" \
       "(${makespan_single}s -> ${makespan_journal}s)" >&2
  exit 1
fi
echo "OK: journal-enabled makespan identical (${makespan_journal}s)"

jcount=$(ls "$jdir"/e2e.*.journal 2>/dev/null | wc -l)
if [ "$jcount" -eq 0 ]; then
  echo "FAIL: journal-enabled run wrote no journal files" >&2
  exit 1
fi
echo "OK: ${jcount} journals written"

# Fabric telemetry gate: the live process fabric with telemetry DISABLED
# (no --trace-out/--metrics-out → no TELEMETRY_SUB on the wire, daemon
# ring never drains, client tracer never allocated) must produce the same
# digest as the fully observed run — observability must never steer the
# run — and the observed run must stay inside a generous wall envelope of
# the disabled one (the runs are short and timing-paced, so the envelope
# is absolute-slack-padded rather than a tight ratio).
echo "==> building release fabric binaries"
cargo build --release -q -p unifaas-cli --bin unifaas-fabric --bin unifaas-endpointd

fdir="$jdir/fabric"
mkdir -p "$fdir"

run_fabric() {
  local tag="$1"
  shift
  local t0 t1
  t0=$(date +%s.%N)
  ./target/release/unifaas-fabric --backend process \
    --tasks 300 --width 4 --seed 7 --fast-timing "$@" \
    > "$fdir/$tag.out" 2> "$fdir/$tag.err"
  t1=$(date +%s.%N)
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }'
}

echo "==> running process fabric (telemetry disabled)"
wall_off=$(run_fabric off)
echo "==> running process fabric (merged trace + metrics export)"
wall_on=$(run_fabric on \
  --trace-out "$fdir/trace.json" --metrics-out "$fdir/metrics.prom")

fab_digest() { sed -n 's/^digest=\(0x[0-9a-f]*\).*/\1/p' "$fdir/$1.out"; }
d_off=$(fab_digest off)
d_on=$(fab_digest on)
echo "fabric digests: disabled=$d_off observed=$d_on" \
     "(wall ${wall_off}s vs ${wall_on}s)"
if [ -z "$d_off" ] || [ "$d_off" != "$d_on" ]; then
  echo "FAIL: enabling telemetry changed the fabric digest" >&2
  cat "$fdir/on.err" >&2
  exit 1
fi
for tag in off on; do
  if ! grep -q " failures=0 " "$fdir/$tag.out"; then
    echo "FAIL: fabric $tag run reported failures" >&2
    exit 1
  fi
done
awk -v off="$wall_off" -v on="$wall_on" 'BEGIN {
  limit = off * 1.5 + 1.0
  if (on > limit) {
    printf "FAIL: observed fabric run %.3fs exceeds %.3fs (disabled %.3fs * 1.5 + 1s)\n",
           on, limit, off
    exit 1
  }
  printf "OK: observed fabric run %.3fs <= %.3fs\n", on, limit
}'
if ! grep -q '"client"' "$fdir/trace.json" \
  || ! grep -q 'gen0 (offset ' "$fdir/trace.json"; then
  echo "FAIL: merged trace missing client track or offset-corrected daemon track" >&2
  exit 1
fi
if ! grep -q '^fedci_' "$fdir/metrics.prom"; then
  echo "FAIL: metrics export missing fedci_* series" >&2
  exit 1
fi
if grep -q "causal violations" "$fdir/on.err" \
  && ! grep -q " 0 causal violations" "$fdir/on.err"; then
  echo "FAIL: observed fabric run reported causal violations" >&2
  grep "violation" "$fdir/on.err" >&2
  exit 1
fi
echo "OK: telemetry-disabled fabric path digest-identical; merged trace and metrics exported"
