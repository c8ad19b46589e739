#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, guards against deleted mechanisms,
# the public-surface census, lints-as-errors, full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The second live runtime was deleted in PR 19; history files may name it,
# benchmark/ is frozen (two comments there say the module is due to go).
echo "==> no LiveRuntime / runtime::live left"
if grep -rn 'runtime::live\|LiveRuntime' \
  --include='*.rs' --include='*.md' --include='*.sh' --include='*.yml' \
  --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "the deleted live runtime is referenced again (see above)" >&2
  exit 1
fi

# The sharded event engine, its `EventSink` trait and DHA's bounded
# re-scheduling knob were deleted in PR 20. DESIGN.md and EXPERIMENTS.md
# name them on purpose (why they went), so only code and CI are searched.
echo "==> no ShardedEngine / engine_shards / EventSink / bounded_reschedule left"
if grep -rnE 'ShardedEngine|engine_shards|EventSink|bounded_reschedule' \
  --include='*.rs' --include='*.sh' --include='*.yml' \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "a deleted engine/scheduler mechanism is referenced again (see above)" >&2
  exit 1
fi

# The simulator's run-mode knobs became one `Config::verify`, and the
# sweep and scheduler-overhead harnesses were deleted (their numbers come
# from benchmark/ and table3_overhead). History files may name them.
echo "==> no engine_reference_queue / record_series / digest_decisions / validate_counters / sweep harness left"
if grep -rnE 'engine_reference_queue|record_series|digest_decisions|validate_counters|reference-queue|sched_overhead|run_sweep' \
  --include='*.rs' --include='*.sh' --include='*.yml' \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "a deleted run-mode knob or harness is referenced again (see above)" >&2
  exit 1
fi

# Faults used to be written four ways: the simulator's three Config
# fields and their spec directives and flags, the thread pools'
# `PoolFaults`, the daemons' `DaemonChaos` and the `--chaos-*` flags. One
# `fedci::fault::FaultPlan` with one rule syntax replaced them all.
echo "==> no second fault vocabulary (PoolFaults / DaemonChaos / OutageSpec / fault probabilities / chaos flags)"
if grep -rnE 'PoolFaults|DaemonChaos|OutageSpec|task_failure_prob|transfer_failure_prob|--task-fail-prob|--transfer-fail-prob|--outage |--chaos-' \
  --include='*.rs' --include='*.sh' --include='*.yml' \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "a deleted fault vocabulary is referenced again (see above)" >&2
  exit 1
fi

# The paper's tables and figures are functions in crates/bench/src/
# experiments.rs, run in-process by the one `all_experiments` binary over
# one memo of simulated runs; the per-figure binaries and the launcher
# that spawned them are gone.
echo "==> one experiment binary, no process launcher"
bins=$(cd crates/bench/src/bin && ls | sort | tr '\n' ' ')
if [ "$bins" != "all_experiments.rs " ]; then
  echo "crates/bench/src/bin/ holds $bins(want all_experiments.rs)" >&2
  exit 1
fi
if grep -n 'Command::new' crates/bench/src/bin/all_experiments.rs \
  crates/bench/src/experiments.rs crates/bench/src/lib.rs; then
  echo "all_experiments spawns processes again" >&2
  exit 1
fi

# The second benchmark system (e2e_throughput, its BENCH_e2e.json
# baseline, the alloc-count allocator and the two wall-clock gate scripts)
# was retired: benchmark/ measures throughput and scale, the golden gate
# pins the stress-100k/1m runs, tests/alloc_gate.rs counts allocations.
# History files may name it.
echo "==> no second benchmark system (e2e_throughput / BENCH_e2e / alloc-count / memstats / its gate scripts)"
if grep -rnE 'e2e_throughput|BENCH_e2e|alloc-count|memstats|check_bench_smoke|check_trace_overhead' \
  --include='*.rs' --include='*.sh' --include='*.yml' --include='*.toml' \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "the retired benchmark system is referenced again (see above)" >&2
  exit 1
fi
if [ -e BENCH_e2e.json ]; then
  echo "the retired BENCH_e2e.json baseline is back" >&2
  exit 1
fi

# The daemon ran every function under its blob-store lock until PR 21: a
# match arm keeps the guard of `&blobs.lock()` alive until the arm ends.
echo "==> no function call under the daemon's blob-store lock"
if grep -rn 'assemble_input(&.*blobs.lock()' crates/fedci/src/process/; then
  echo "the daemon assembles and runs a job under its blob-store lock again" >&2
  exit 1
fi

# An attempt's trip through the process fabric costs no hashing of the
# function name and no lock per job: the daemon's reader resolves
# functions once per connection and hands a whole socket read to the
# workers at once, and the supervisor's in-flight table is keyed for
# locality, not by the default SipHash.
echo "==> no per-job function lookup or job channel in the daemon, no SipHash in-flight table"
if sed -n '/^fn daemon_worker/,/^}/p' crates/fedci/src/process/endpointd.rs | grep -n 'registry'; then
  echo "daemon_worker looks functions up in the registry per job again" >&2
  exit 1
fi
if grep -rnE '(Sender|Receiver|unbounded::)<(JobSpec|DaemonJob)>' crates/fedci/src/process/; then
  echo "the daemon hands jobs to its workers through a crossbeam channel again" >&2
  exit 1
fi
if grep -n 'outstanding: HashMap::new()' crates/fedci/src/process/supervisor.rs; then
  echo "Supervisor::outstanding is built with the default hasher again" >&2
  exit 1
fi

# The wire protocol's decisions live in two machines that take the time
# as an argument and leave their output in buffers; sockets, threads,
# child processes, channels, locks, clocks, spinning and yielding are
# the std-net driver's. One file per part, none of them 800 lines long.
echo "==> sans-IO wire machines; one process/ module of small files"
machines="crates/fedci/src/process/supervisor.rs crates/fedci/src/process/daemon.rs"
if grep -nE 'std::net|std::thread|std::process|Instant::now|sleep\(|Condvar|crossbeam|Mutex|mpsc|spin_loop|yield_now' \
  $machines; then
  echo "a protocol machine does I/O, blocks or reads the clock again (see above)" >&2
  exit 1
fi
if [ -e crates/fedci/src/process.rs ]; then
  echo "crates/fedci/src/process.rs is back; the fabric lives in process/" >&2
  exit 1
fi
for f in crates/fedci/src/process/*.rs; do
  if [ "$(wc -l < "$f")" -ge 800 ]; then
    echo "$f has $(wc -l < "$f") lines (the limit is 799)" >&2
    exit 1
  fi
done

# The client's decisions (the task life-cycle and attempt guard,
# dependency counting, back-off, the watchdog's scan, health and
# placement) live in one machine that reads liveness and the time through
# a view and answers with what to do; the lock, the fabric calls, the
# timer thread and the waits are its driver's (runtime/fabric.rs).
echo "==> sans-IO client coordinator (runtime/coord.rs)"
coord=crates/unifaas/src/runtime/coord.rs
if grep -nE 'Instant|std::thread|sleep\(|Mutex|Condvar|mpsc|crossbeam|parking_lot' "$coord"; then
  echo "the client coordinator blocks, locks or reads the clock itself again (see above)" >&2
  exit 1
fi
if [ "$(wc -l < "$coord")" -ge 800 ]; then
  echo "$coord has $(wc -l < "$coord") lines (the limit is 799)" >&2
  exit 1
fi

# The simulator reads no wall clock per task: a metered run times the
# scheduler's hooks through the meter's `TimedScheduler` (sched/timed.rs),
# and nothing else in the runtime glue needs the time.
echo "==> no wall clock in the simulator's runtime (runtime/sim.rs)"
if grep -nE 'Instant|elapsed\(|SystemTime' crates/unifaas/src/runtime/sim.rs; then
  echo "runtime/sim.rs reads the wall clock again (see above)" >&2
  exit 1
fi

# POLL/POLL_ACK (protocol revision 4), the daemon's telemetry-ring option
# and the threaded pools' poll timeout were deleted; history files may
# name them.
echo "==> no POLL frames, --telemetry-ring or poll_timeout left"
if grep -rnE 'Frame::Poll|PollAck|telemetry_ring|--telemetry-ring|poll_timeout' \
  --include='*.rs' --include='*.sh' --include='*.yml' --include='*.toml' \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "a deleted wire frame or option is referenced again (see above)" >&2
  exit 1
fi

# The supervisor kept a DISPATCH-to-RESULT histogram that nothing read,
# stamping every submit and taking a lock per settled batch for it; it was
# deleted. The benchmark's TimedFabric measures the same span from outside.
echo "==> no dispatch round-trip histogram in the process fabric"
if grep -rnE 'dispatch_hist|dispatch_roundtrip' crates/ src/ tests/ scripts/ \
  --exclude=check.sh; then
  echo "the process fabric keeps a dispatch round-trip histogram again (see above)" >&2
  exit 1
fi

# DHA's delay queues index tasks densely and order heap entries by one
# integer compare; the hashed index and the float comparator are gone.
echo "==> no hashing or float comparator in the delay queues"
if grep -nE 'HashMap|partial_cmp' crates/unifaas/src/sched/queue.rs; then
  echo "sched/queue.rs hashes tasks or compares priorities as floats again" >&2
  exit 1
fi

# A traced re-scheduling pass takes the same class-verdict shortcuts as an
# untraced one (it records only steals, and a covered task cannot steal).
echo "==> DHA's re-scheduling shortcuts do not depend on tracing"
if grep -n '!ctx.trace_decisions' crates/unifaas/src/sched/dha.rs; then
  echo "sched/dha.rs gates a shortcut on tracing again" >&2
  exit 1
fi

# A DAG task costs no heap allocation for its adjacency (one flat
# predecessor array, successors inline until they spill), and the task
# monitor keeps dense per-endpoint counts, not per-function statistics.
echo "==> no per-task adjacency Vecs in the DAG, no second graph in the coordinator, no hashing in the task monitor"
if grep -n 'Vec<Vec<TaskId>>' crates/taskgraph/src/graph.rs; then
  echo "taskgraph/src/graph.rs keeps a Vec per task for adjacency again" >&2
  exit 1
fi
# The live coordinator keeps its edges, successors and function names in
# that same `Dag`, not in a graph of its own.
if grep -nE 'dependents|functions: Vec<Arc<str>>' crates/unifaas/src/runtime/coord.rs; then
  echo "runtime/coord.rs keeps its own successor list or function-name table again" >&2
  exit 1
fi
# A completion writes only its task's slot (an output's length is read off
# the output the slot keeps), not the `Dag` spec the submitting thread
# writes beside it.
if grep -n 'spec_mut' crates/unifaas/src/runtime/coord.rs; then
  echo "runtime/coord.rs writes the Dag's task specs again" >&2
  exit 1
fi
if grep -nE 'HashMap|mean_duration' crates/unifaas/src/monitor/task_monitor.rs; then
  echo "monitor/task_monitor.rs hashes or aggregates durations again" >&2
  exit 1
fi

# The data store is a Vec indexed by object id, and both best-source memos
# are dense per-(object, destination) entries stamped with the object's
# replica-set generation: no hashing, no store-wide version counter.
echo "==> no hashing in the data store or the best-source memos, no DataStore::version"
if grep -n 'HashMap' crates/fedci/src/storage.rs crates/unifaas/src/data.rs; then
  echo "the data store or the data manager hashes object ids again" >&2
  exit 1
fi
if sed -n '/^struct ReplicaCache/,/^}/p' crates/unifaas/src/sched/dha.rs | grep -n 'HashMap'; then
  echo "DHA's best-replica memo hashes again" >&2
  exit 1
fi
if grep -n 'fn version' crates/fedci/src/storage.rs; then
  echo "fedci/src/storage.rs has a store-wide version counter again" >&2
  exit 1
fi

# The simulator reports each run fact once to one recorder
# (unifaas/src/runtime/record.rs), and the 15 delivery kinds are listed
# once there. The fedci label set, the flight recorder's ring and its
# report were folded in or deleted; history files may name them.
echo "==> delivery kinds listed once; no FedciTraceLabels / FlightReport / RecentEvent"
kinds='StagingCheck|XferDone|TaskArrive|ExecDone|ResultObserved|MockSync|ScaleTick|RescheduleTick|CapacityChange|Commission|Inject|OutageStart|OutageEnd|RetryTask|ExecTimeout'
labels='staging_check|xfer_done|task_arrive|exec_done|result_observed|mock_sync|scale_tick|reschedule_tick|capacity_change|commission|inject|outage_start|outage_end|retry_task|exec_timeout'
files=$(grep -rlE "\"($kinds)\"|\"ev\.($labels)\"" \
  --include='*.rs' --exclude-dir=benchmark --exclude-dir=target --exclude-dir=.git . || true)
if [ "$(echo "$files" | grep -c .)" -gt 1 ]; then
  echo "delivery-kind names are spelled out in more than one file:" $files >&2
  exit 1
fi
if grep -rnE 'FedciTraceLabels|FlightReport|RecentEvent' \
  --include='*.rs' --include='*.sh' --include='*.yml' \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "a deleted recorder type is referenced again (see above)" >&2
  exit 1
fi

# simkit is the deterministic kernel both runtimes build on: it opens no
# socket, starts no thread, takes no lock and reads no clock. The wall
# clock and the threads belong to the runtimes that drive it.
echo "==> simkit opens no socket, starts no thread, takes no lock, reads no clock"
if grep -rnE 'std::(net|thread|sync|time)' crates/simkit/src; then
  echo "crates/simkit/src does I/O, spawns, locks or reads the clock again (see above)" >&2
  exit 1
fi

# Every `pub` item of a library crate is named outside its file, or is on
# scripts/pub_readers.txt with the reader that keeps it public.
echo "==> public-surface census (scripts/pub_census.py against scripts/pub_readers.txt)"
python3 scripts/pub_census.py

# Options nothing set to a non-default value became constants, the unread
# items went, the flags that served what --metrics-out already writes
# went, the live scrape server and the progress recorder (its stall
# detector, its flag and the example that scraped a running runtime) went,
# and the scheduler has one hook per event (`on_tasks_ready`,
# `on_workers_idle`). History files may name them.
echo "==> no deleted option, flag, live observability surface or per-item scheduler hook left"
if grep -rnE 'submit_batch_size|reschedule_interval|max_decisions|max_transfers|home_is_last|derive_uuid|serve_addr|on_worker_idle\b|on_task_ready\b|--progress|--metrics-addr|--trace-level|--max-attempts|MetricsServer|serve_metrics|FlightRecorder|FlightConfig|with_flight|flight_stalls|progress_stderr|live_metrics' \
  --include='*.rs' --include='*.sh' --include='*.yml' \
  --exclude=check.sh --exclude-dir=benchmark --exclude-dir=target \
  --exclude-dir=.git .; then
  echo "a deleted option, flag, observability surface or scheduler hook is referenced again (see above)" >&2
  exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> golden gate"
scripts/check_golden.sh

echo "All checks passed."
