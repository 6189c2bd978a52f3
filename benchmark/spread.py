#!/usr/bin/env python3
"""Runs the benchmark ten times per workload, each time with another seed,
and prints for every end-to-end metric the distance between the first and
the third quartile of its ten values as a share of their median, beside the
metric's bound: the driver's own acceptance check.

    python3 benchmark/spread.py [runs] [first_seed]
"""
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
worst = 0.0
for wl in spec["workloads"]:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", wl["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"{wl['name']} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
        for name, v in res["metrics"].items():
            values[name].append(v["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        mark = ""
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
            mark = "  over a third of the bound" if spread > m["bound"] / 3 else ""
            if spread > m["bound"]:
                mark = "  OVER THE BOUND"
        print(f"{wl['name']:18s} {m['name']:20s} median {med:14.6g} {m['unit']:6s} "
              f"spread {100 * spread:6.2f}%  bound {100 * m['bound']:4.0f}%{mark}", flush=True)
print(f"worst spread is {worst:.2f} of its bound")
