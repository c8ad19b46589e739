#!/usr/bin/env bash
# Doctor smoke gate: journal the stress-100k DHA run on the calendar
# wheel and on the binary-heap reference queue; the divergence doctor
# must report the two journals bit-identical. Then
# inject a one-microsecond perturbation mid-journal with
# `unifaas-sim journal-perturb` and require the doctor to localize the
# divergence to exactly that record — never a neighbour, never a
# whole-chunk smear.
#
# Usage: scripts/check_doctor_smoke.sh [outdir]
#   outdir — where journals, bench rows and doctor transcripts land
#   (default doctor-smoke/). CI uploads this directory as an artifact
#   when the gate fails, so a digest divergence on a runner ships the
#   evidence needed to debug it offline.
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-doctor-smoke}"
mkdir -p "$outdir"

bench() {
  local tag="$1"
  shift
  echo "==> journaled stress-100k DHA run [$tag]"
  cargo run --release -q -p unifaas-bench --bin e2e_throughput -- \
    --smoke --only stress-100k --strategy DHA \
    --out "$outdir/bench-$tag.json" --journal "$outdir/$tag" "$@"
  mv "$outdir/$tag.stress-100k.DHA.journal" "$outdir/$tag.journal"
}

bench wheel
bench heap --reference-queue

doctor() {
  cargo run --release -q -p unifaas-cli --bin unifaas-sim -- doctor "$@"
}

echo "==> doctor: wheel vs heap"
doctor "$outdir/wheel.journal" "$outdir/heap.journal" \
  | tee "$outdir/doctor-wheel-heap.txt"
grep -q "^journals identical" "$outdir/doctor-wheel-heap.txt"

records=$(sed -n 's/^journals identical: \([0-9]*\) records.*/\1/p' \
  "$outdir/doctor-wheel-heap.txt")
target=$((records / 2))
echo "==> injecting 1us perturbation at record #$target of $records"
cargo run --release -q -p unifaas-cli --bin unifaas-sim -- \
  journal-perturb "$outdir/wheel.journal" "$outdir/perturbed.journal" "$target"

set +e
doctor "$outdir/wheel.journal" "$outdir/perturbed.journal" \
  > "$outdir/doctor-perturbed.txt"
status=$?
set -e
cat "$outdir/doctor-perturbed.txt"
if [ "$status" -ne 1 ]; then
  echo "FAIL: doctor exit code $status for a diverged pair (want 1)" >&2
  exit 1
fi
if ! grep -q "^journals DIVERGE at record #${target}\$" \
  "$outdir/doctor-perturbed.txt"; then
  echo "FAIL: doctor did not localize the perturbation to record #$target" >&2
  exit 1
fi
echo "OK: doctor localized the injected perturbation to record #$target"
