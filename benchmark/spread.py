#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs BENCHMARK.json's command N times per workload (default 10), each time
with another --seed, and prints per (workload, metric) the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound. A spread above a third of its bound is flagged.

    python3 benchmark/spread.py [runs] [workload ...]
"""
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

root = Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())
args = sys.argv[1:]
runs = int(args.pop(0)) if args and args[0].isdigit() else 10
workloads = args or [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

flagged = 0
for w in workloads:
    values = {name: [] for name in bounds}
    took = []
    for seed in range(1, runs + 1):
        cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.time()
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        took.append(time.time() - t0)
        if out.returncode != 0:
            sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{w} seed {seed}: incorrect result {result}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    print(f"{w}: {runs} runs, {statistics.median(took):.1f} s per run (max {max(took):.1f} s)")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        flag = ""
        if name != "setup_s" and spread > bounds[name] / 3:
            flag = "  > bound/3"
            flagged += 1
        print(f"  {name:<14} median {med:<14.6g} spread {spread * 100:6.2f}%  "
              f"bound {bounds[name] * 100:.0f}%{flag}")
sys.exit(1 if flagged else 0)
