#!/usr/bin/env bash
# Builds the harness and the real unifaas-endpointd, then runs the benchmark.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the result is the last line of stdout
#       (this is what BENCHMARK.json's command runs)
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       full pass: every workload untraced, then traced; writes
#       benchmark/out/result.json and benchmark/out/trace-<workload>.json
#   benchmark/run.sh --selfcheck    two untraced passes must agree within bounds
#   benchmark/run.sh --smoke        every workload at 1/20 size, one rep
#   benchmark/run.sh kernels        the standalone layer kernels
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds; the harness package is its own
# workspace, so neither build touches the repository's Cargo.lock.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
cargo build --release --offline --quiet -p unifaas-cli --bin unifaas-endpointd 1>&2
bin="$CARGO_TARGET_DIR/release/unifaas-benchmark"
daemon="$CARGO_TARGET_DIR/release/unifaas-endpointd"

mode=pass
for arg in "$@"; do
  case "$arg" in
    --workload) mode=one ;;
    kernels) mode=kernels ;;
  esac
done
case "$mode" in
  one) exec "$bin" --daemon "$daemon" "$@" ;;
  kernels) exec "$bin" "$@" ;;
  pass) exec "$bin" pass --daemon "$daemon" "$@" ;;
esac
