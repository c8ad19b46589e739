#!/usr/bin/env bash
# Process-fabric chaos gate: release-mode chaos suites (real SIGKILLs of
# child endpoint daemons, mid-frame socket cuts, half-open connections,
# duplicate/replayed RESULTs, a kill -9'd journal writer), then an
# end-to-end digest equivalence run of the `unifaas-fabric` driver:
# threaded backend, unfaulted process backend, and a process run whose
# endpoints are SIGKILLed mid-flight must all print the same result
# digest with zero failures — and, from `--report`, the unfaulted process
# run must have left outputs where they were computed while the SIGKILL
# run was re-shipped what the killed daemons had kept. Last, a process
# run with telemetry off must print the same digest as one exporting a
# merged trace and metrics, within a wall-clock envelope of it.
#
# Usage: scripts/check_process_chaos.sh [outdir]
#   outdir — where run transcripts, digests and recovery counters land
#   (default process-chaos/). CI uploads this directory as an artifact
#   when the gate fails, so a flaky recovery on a runner ships the
#   evidence needed to debug it offline.
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-process-chaos}"
mkdir -p "$outdir"

echo "==> release chaos suites (SIGKILL, socket cuts, stale replay)"
cargo test --release -q -p unifaas-cli --test integration_process \
  -- --nocapture 2>&1 | tee "$outdir/integration_process.txt"
cargo test --release -q -p unifaas-cli --test proptest_process \
  2>&1 | tee "$outdir/proptest_process.txt"

echo "==> kill -9 journal recovery (partial chunk parses, doctor says clean prefix)"
cargo test --release -q -p unifaas-cli --test integration_crash_journal \
  2>&1 | tee "$outdir/crash_journal.txt"

echo "==> building release fabric binaries"
cargo build --release -q -p unifaas-cli \
  --bin unifaas-fabric --bin unifaas-endpointd

fabric() {
  local tag="$1"
  shift
  ./target/release/unifaas-fabric \
    --tasks 400 --width 4 --seed 2024 --fast-timing --report "$@" \
    2> "$outdir/$tag.report.txt" | tee "$outdir/$tag.out.txt"
}

echo "==> digest gate: threaded vs process vs process+SIGKILL"
fabric threaded --backend threaded
fabric process --backend process
# The chaos run doubles as the observability witness: it writes the
# merged cross-process Perfetto timeline and the final scraped metrics,
# which CI uploads alongside the transcripts when the gate fails.
fabric chaos --backend process \
  --fault 'kill ep=0 after=60' --fault 'kill ep=1 after=150' \
  --fault 'kill ep=0 after=250' \
  --trace-out "$outdir/chaos_trace.json" \
  --metrics-out "$outdir/chaos_metrics.prom"

digest() { sed -n 's/^digest=\(0x[0-9a-f]*\).*/\1/p' "$outdir/$1.out.txt"; }
d_threaded=$(digest threaded)
d_process=$(digest process)
d_chaos=$(digest chaos)
echo "threaded=$d_threaded process=$d_process chaos=$d_chaos"
if [ -z "$d_threaded" ] || [ "$d_threaded" != "$d_process" ] \
  || [ "$d_threaded" != "$d_chaos" ]; then
  echo "FAIL: digests diverge across backends/faults" >&2
  cat "$outdir/chaos.report.txt" >&2
  exit 1
fi
for tag in threaded process chaos; do
  if ! grep -q " failures=0 " "$outdir/$tag.out.txt"; then
    echo "FAIL: $tag run reported failures" >&2
    exit 1
  fi
done
if ! grep -q "respawns=[1-9]" "$outdir/chaos.report.txt"; then
  echo "FAIL: chaos run never respawned a killed endpoint" >&2
  cat "$outdir/chaos.report.txt" >&2
  exit 1
fi
echo "OK: SIGKILLed process run converged to the unfaulted digest ($d_threaded)"

echo "==> locality gate: kept outputs are not sent back; a respawn is re-shipped what it lost"
# The layered DAG is submitted up front, so every non-leaf output is
# dispatched with its dependents registered and kept where it is computed.
sum_field() { grep -o "$1=[0-9]*" "$outdir/$2.report.txt" | awk -F= '{ s += $2 } END { print s + 0 }'; }
elided=$(sum_field transfers_elided process)
shipped=$(sum_field transfer_bytes process)
shipped_chaos=$(sum_field transfer_bytes chaos)
echo "process: transfers_elided=$elided transfer_bytes=$shipped; chaos: transfer_bytes=$shipped_chaos"
if [ "${elided:-0}" -lt 100 ]; then
  echo "FAIL: the unfaulted process run elided almost no transfers" >&2
  cat "$outdir/process.report.txt" >&2
  exit 1
fi
# A killed generation takes its kept outputs with it; the tasks retried on
# its successor name them, so the client's copies go out as TRANSFERs.
if [ "${shipped_chaos:-0}" -le "${shipped:-0}" ]; then
  echo "FAIL: the SIGKILL run shipped nothing the unfaulted run did not" >&2
  cat "$outdir/chaos.report.txt" >&2
  exit 1
fi
echo "OK: $elided transfers elided unfaulted; $shipped_chaos bytes re-shipped under SIGKILL"

echo "==> observability gate: merged timeline + metrics from the chaos run"
if ! [ -s "$outdir/chaos_trace.json" ]; then
  echo "FAIL: chaos run wrote no merged trace" >&2
  exit 1
fi
# The SIGKILL signature: the client track, a generation-0 track with an
# offset-corrected clock label, and a post-respawn (generation >= 1)
# track. A mid-run kill can eat a whole generation's un-flushed ring, so
# the post-respawn witness is the surviving generation, whatever its
# number.
for marker in '"client"' 'gen0 (offset '; do
  if ! grep -q "$marker" "$outdir/chaos_trace.json"; then
    echo "FAIL: merged chaos trace missing $marker" >&2
    exit 1
  fi
done
if ! grep -Eq 'gen[1-9][0-9]* \((offset |clock unsynced)' \
  "$outdir/chaos_trace.json"; then
  echo "FAIL: merged chaos trace has no post-respawn generation track" >&2
  exit 1
fi
if ! grep -q "causal violations" "$outdir/chaos.report.txt" \
  || ! grep -q " 0 causal violations" "$outdir/chaos.report.txt"; then
  echo "FAIL: chaos timeline reported causal violations (or none computed)" >&2
  grep "violation" "$outdir/chaos.report.txt" >&2 || true
  exit 1
fi
if ! grep -q '^fedci_proc_respawns' "$outdir/chaos_metrics.prom" \
  || ! grep -q '^fedci_wire_' "$outdir/chaos_metrics.prom"; then
  echo "FAIL: chaos metrics export missing fedci_proc_*/fedci_wire_* series" >&2
  exit 1
fi
echo "OK: chaos run shipped a causally clean merged timeline and fedci_* metrics"

# Fabric telemetry gate: the live process fabric with telemetry DISABLED
# (no --trace-out/--metrics-out → no TELEMETRY_SUB on the wire, daemon
# ring never drains, client tracer never allocated) must produce the same
# digest as the fully observed run — observability must never steer the
# run — and the observed run must stay inside a generous wall envelope of
# the disabled one (the runs are short and timing-paced, so the envelope
# is absolute-slack-padded rather than a tight ratio).
fdir="$outdir/telemetry"
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

echo "==> telemetry gate: process fabric with telemetry disabled vs merged trace + metrics export"
wall_off=$(run_fabric off)
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
