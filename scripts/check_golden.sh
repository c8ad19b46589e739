#!/usr/bin/env bash
# Golden gate: the paper numbers and the spec runs are what the committed
# goldens say, byte for byte outside the wall-clock fields listed below.
#
# Usage: scripts/check_golden.sh            compare; exit 1 on any difference
#        scripts/check_golden.sh --update   rewrite the goldens from this tree
#
# Goldens (stored unmasked, so each is a complete record of its run):
#   results/all_experiments.txt            all_experiments stdout
#   results/golden/<spec>.txt              unifaas-sim specs/<spec>.spec stdout
#   results/golden/<spec>.decisions.jsonl  that spec's scheduler decisions: the
#                                          trace JSONL "decision" records of a
#                                          --trace-out run, candidate lists cut
#   results/golden/<spec>.observability.txt
#                                          unifaas-sim specs/<spec>.spec --report
#                                          --trace-out t.json --metrics-out m.prom
#                                          --flame-out f.folded --journal-out
#                                          j.journal: the sha256 of every file it
#                                          writes, then its stdout. Pins every
#                                          observability artifact byte for byte.
#   results/golden/<stress>.<strategy>.txt unifaas-sim specs/stress/<stress>.spec
#                                          --strategy <strategy> --verify stdout,
#                                          for capacity, locality and dha. A
#                                          traced run would write ~10 MB of
#                                          decisions per 100k tasks, so the
#                                          printed decision digest pins them.
#
# A plain stress run must print exactly its --verify run's lines minus the
# "decision digest" line: checking a run does not change it.
#
# Masks. Each replaces one wall-clock number with <wall>, on both sides,
# before `cmp`; nothing else is masked:
#   1. Fig. 5's "scheduling (wall, incl. prediction)" row.
#   2. Table III's overhead/task and total columns (hook calls stay checked).
#   3. unifaas-sim's "scheduler overhead ... s/task (wall)" line, which only a
#      metered run (--report, --metrics-out: the observability goldens) prints.
#   4. unifaas-sim's "(N simulated events in X s wall)" line.
#
# A change that moves a paper number updates the golden in the same diff
# and says why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
case "${1:-}" in
  --update) update=1 ;;
  "") ;;
  *) echo "usage: $0 [--update]" >&2; exit 2 ;;
esac

cargo build --release -q -p unifaas-bench -p unifaas-cli
root="$PWD"
bin="$root/target/release"

mask() {
  sed -e 's/^\(scheduling (wall, incl\. prediction) *\)[0-9.]*$/\1<wall>/' \
      -e '/^algorithm  *overhead\/task/,/^$/s/^\([A-Za-z][A-Za-z]* *\)[0-9][0-9.e+-]* *[0-9][0-9.]* *\([0-9][0-9]*\)$/\1<wall> <wall> \2/' \
      -e 's/^\(scheduler overhead *\).* s\/task (wall)$/\1<wall> s\/task (wall)/' \
      -e 's/^\(([0-9]* simulated events in \)[0-9.]* s wall)$/\1<wall> s wall)/' \
      "$1"
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "==> all_experiments"
"$bin/all_experiments" > "$out/all_experiments.txt"
for spec in specs/*.spec; do
  name=$(basename "$spec" .spec)
  echo "==> unifaas-sim $spec"
  "$bin/unifaas-sim" "$spec" > "$out/$name.txt"
  # The traced run is for its decision records only (its stdout adds
  # "wrote <path>" lines); it runs in the scratch dir so the files land there.
  (cd "$out" && "$bin/unifaas-sim" "$root/$spec" --trace-out "$name.trace.json" > /dev/null)
  sed -n '/"kind":"decision"/s/,"exec_cache_hit".*$/}/p' \
    "$out/$name.trace.json.jsonl" > "$out/$name.decisions.jsonl"
  # Every observability output at once, in a directory of its own so the
  # file names (which the run prints) are the same on every machine.
  echo "==> unifaas-sim $spec [observability]"
  obs="$out/$name.obs"
  mkdir -p "$obs"
  (cd "$obs" && "$bin/unifaas-sim" "$root/$spec" --report --trace-out t.json \
    --metrics-out m.prom --flame-out f.folded --journal-out j.journal > stdout.txt)
  (cd "$obs" && sha256sum t.json t.json.jsonl t.json.counters.txt m.prom f.folded j.journal \
    && cat stdout.txt) > "$out/$name.observability.txt"
done

for spec in specs/stress/*.spec; do
  name=$(basename "$spec" .spec)
  for strategy in capacity locality dha; do
    echo "==> unifaas-sim $spec --strategy $strategy [--verify]"
    "$bin/unifaas-sim" "$spec" --strategy "$strategy" --verify > "$out/$name.$strategy.txt"
    "$bin/unifaas-sim" "$spec" --strategy "$strategy" > "$out/$name.$strategy.plain"
  done
done

pairs=("$out/all_experiments.txt:results/all_experiments.txt")
for spec in specs/*.spec; do
  name=$(basename "$spec" .spec)
  pairs+=("$out/$name.txt:results/golden/$name.txt")
  pairs+=("$out/$name.decisions.jsonl:results/golden/$name.decisions.jsonl")
  pairs+=("$out/$name.observability.txt:results/golden/$name.observability.txt")
done
for spec in specs/stress/*.spec; do
  name=$(basename "$spec" .spec)
  for strategy in capacity locality dha; do
    pairs+=("$out/$name.$strategy.txt:results/golden/$name.$strategy.txt")
  done
done

if [ "$update" -eq 1 ]; then
  mkdir -p results/golden
  for p in "${pairs[@]}"; do
    cp "${p%%:*}" "${p#*:}"
  done
  echo "goldens updated; say in CHANGES.md which numbers moved and why"
  exit 0
fi

fail=0
for p in "${pairs[@]}"; do
  fresh="${p%%:*}" golden="${p#*:}"
  if [ ! -f "$golden" ]; then
    echo "FAIL: missing golden $golden" >&2
    fail=1
    continue
  fi
  if ! cmp -s <(mask "$fresh") <(mask "$golden"); then
    echo "FAIL: $golden differs (masked diff, golden first):" >&2
    diff <(mask "$golden") <(mask "$fresh") | head -40 >&2 || true
    fail=1
  fi
done
for plain in "$out"/*.plain; do
  verified="${plain%.plain}.txt"
  if ! cmp -s <(mask "$plain") <(grep -v '^decision digest' "$verified" | mask /dev/stdin); then
    echo "FAIL: --verify changed a run: $(basename "$plain" .plain) (masked diff, verified first):" >&2
    diff <(grep -v '^decision digest' "$verified" | mask /dev/stdin) <(mask "$plain") | head -40 >&2 || true
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "OK: ${#pairs[@]} outputs match their goldens; plain stress runs match their --verify runs"
