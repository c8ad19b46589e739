#!/usr/bin/env bash
# Doctor smoke gate: run the stress-100k DHA spec
# (specs/stress/stress_100k.spec) without a journal, journaled, and
# journaled with --verify (checked event queue, counter reconciliation,
# decision digest).
#
#   1. The journal only observes: the journaled run prints what the
#      unjournaled run prints, except the journal line and wall clocks.
#   2. Journal envelope: the journaled run's wall time is at most 60 %
#      above the unjournaled run's on the same machine (best of three
#      runs each). The journal records every delivered event (~34 bytes,
#      buffered sequential writes, plus decision notes), so it is paid
#      for, but bounded.
#   3. The divergence doctor reports the plain and --verify journals
#      bit-identical.
#   4. A one-microsecond perturbation injected mid-journal with
#      `unifaas-sim journal-perturb` is localized by the doctor to exactly
#      that record — never a neighbour, never a whole-chunk smear.
#
# Usage: scripts/check_doctor_smoke.sh [outdir]
#   outdir — where journals, run transcripts and doctor transcripts land
#   (default doctor-smoke/). CI uploads this directory as an artifact
#   when the gate fails, so a digest divergence on a runner ships the
#   evidence needed to debug it offline.
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-doctor-smoke}"
mkdir -p "$outdir"

cargo build --release -q -p unifaas-cli --bin unifaas-sim
sim=./target/release/unifaas-sim

run() {
  local tag="$1"
  shift
  echo "==> stress-100k DHA run [$tag]"
  "$sim" specs/stress/stress_100k.spec --strategy dha "$@" > "$outdir/$tag.txt"
}

wall() { sed -n 's/^([0-9]* simulated events in \([0-9.]*\) s wall)$/\1/p' "$outdir/$1.txt"; }
least() { printf '%s\n' "$@" | sort -g | head -1; }

# Best of three alternating runs per side: on a shared machine one pair
# alone crosses the envelope on a scheduling spike.
walls_off=()
walls_on=()
for rep in 1 2 3; do
  run unjournaled
  walls_off+=("$(wall unjournaled)")
  run plain --journal-out "$outdir/plain.journal"
  walls_on+=("$(wall plain)")
done
run verify --verify --journal-out "$outdir/verify.journal"

# Everything but the wall-clock lines and the journal's own summary line.
sim_state() { grep -v -e '(wall)' -e ' s wall)$' -e '^journal ' "$outdir/$1.txt"; }
if ! diff <(sim_state unjournaled) <(sim_state plain); then
  echo "FAIL: enabling the run journal changed the run (diff above)" >&2
  exit 1
fi
echo "OK: journaled run identical to the unjournaled run"

awk -v off="$(least "${walls_off[@]}")" -v on="$(least "${walls_on[@]}")" 'BEGIN {
  limit = off * 1.60
  if (on > limit) {
    printf "FAIL: journaled run %.2fs exceeds %.2fs (unjournaled %.2fs + 60%%)\n", on, limit, off
    exit 1
  }
  printf "OK: journaled run %.2fs <= %.2fs (unjournaled %.2fs + 60%%)\n", on, limit, off
}'

doctor() { "$sim" doctor "$@"; }

echo "==> doctor: plain vs verify"
doctor "$outdir/plain.journal" "$outdir/verify.journal" \
  | tee "$outdir/doctor-plain-verify.txt"
grep -q "^journals identical" "$outdir/doctor-plain-verify.txt"

records=$(sed -n 's/^journals identical: \([0-9]*\) records.*/\1/p' \
  "$outdir/doctor-plain-verify.txt")
target=$((records / 2))
echo "==> injecting 1us perturbation at record #$target of $records"
"$sim" journal-perturb "$outdir/plain.journal" "$outdir/perturbed.journal" "$target"

set +e
doctor "$outdir/plain.journal" "$outdir/perturbed.journal" \
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
