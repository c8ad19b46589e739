#!/usr/bin/env bash
# Process-fabric chaos gate: release-mode chaos suites (real SIGKILLs of
# child endpoint daemons, mid-frame socket cuts, half-open connections,
# duplicate/replayed RESULTs, a kill -9'd journal writer), then an
# end-to-end digest equivalence run of the `unifaas-fabric` driver:
# threaded backend, unfaulted process backend, and a process run whose
# endpoints are SIGKILLed mid-flight must all print the same result
# digest with zero failures — and, from `--report`, the unfaulted process
# run must have left outputs where they were computed while the SIGKILL
# run was re-shipped what the killed daemons had kept.
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
