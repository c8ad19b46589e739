#!/usr/bin/env bash
# Samples where a command spends its CPU time, without perf or gdb.
#
#   scripts/profile.sh [--out DIR] [--exe SUBSTR] -- <cmd...>
#
# Builds scripts/profile/sprof.c into target/sprof.so, runs <cmd...> with it
# preloaded (every process the command spawns is sampled too, each writing
# DIR/sprof.<pid>.txt at exit), then prints scripts/profile/report.py's flat
# and inclusive tables and saves them as DIR/report.txt. DIR defaults to
# target/profile and is emptied first. --exe keeps only processes whose
# executable path contains SUBSTR (e.g. unifaas-benchmark); run report.py
# on DIR for other views, e.g. --within 'SimRuntime::run'.
#
# Attribution only: sampling runs at the kernel tick (about 100-250
# samples per CPU-second) and a process killed with SIGKILL leaves no file.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

out="$root/target/profile"
exe=""
while [ $# -gt 0 ]; do
  case "$1" in
    --out) out="$2"; shift 2 ;;
    --exe) exe="$2"; shift 2 ;;
    --) shift; break ;;
    *) echo "usage: $0 [--out DIR] [--exe SUBSTR] -- <cmd...>" >&2; exit 2 ;;
  esac
done
if [ $# -eq 0 ]; then
  echo "usage: $0 [--out DIR] [--exe SUBSTR] -- <cmd...>" >&2
  exit 2
fi

mkdir -p "$root/target"
shim="$root/target/sprof.so"
cc -O2 -shared -fPIC -o "$shim" "$root/scripts/profile/sprof.c"

mkdir -p "$out"
out="$(cd "$out" && pwd)"
rm -f "$out"/sprof.*.txt

status=0
SPROF_DIR="$out" LD_PRELOAD="$shim${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?
python3 "$root/scripts/profile/report.py" "$out" --exe "$exe" | tee "$out/report.txt"
exit "$status"
