#!/usr/bin/env python3
"""Record a flowbench result set: run every workload on seeds 1..10.

    python3 flowbench/record.py --out flowbench/history/<name>.json [--label text]

Runs the command from the repository's BENCHMARK.json, from the
repository root, for every workload it names: once per seed 1..10 with
tracing off, then once with tracing on (seed 1). It writes every result
line plus the host's `nproc` and the effective ncs-par thread count the
benchmark reported. A run that fails its checks is kept with
`correct: false` and left out of the spreads. At the end it prints each
end-to-end metric's spread (quartile distance over median, as
`compare.py` computes it) next to the metric's bound.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 2)


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, no result")
    if proc.returncode != 0:
        sys.stderr.write("".join(l + "\n" for l in lines if l.startswith("# FAILED")))
    threads = None
    for line in lines:
        m = re.search(r"threads=(\d+)", line)
        if line.startswith("# flowbench") and m:
            threads = int(m.group(1))
    return result, threads, elapsed


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    runs, threads = [], set()
    for workload in names:
        plan = [(seed, 0) for seed in SEEDS] + [(seed, 1) for seed in TRACED_SEEDS]
        for seed, trace in plan:
            result, t, elapsed = run_once(benchmark["command"], workload, seed, seconds, trace)
            threads.add(t)
            runs.append({"workload": workload, "seed": seed, "trace": trace,
                         "elapsed_s": round(elapsed, 3), "result": result})
            print(f"{workload} seed={seed} trace={trace} {elapsed:.1f}s "
                  f"correct={result['correct']}", file=sys.stderr, flush=True)
    meta = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "threads": sorted(t for t in threads if t is not None),
        "run_seconds": seconds,
        "seeds": [SEEDS[0], SEEDS[-1]],
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"meta": meta, "runs": runs}, f, indent=1)
        f.write("\n")
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in names:
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if r["workload"] == workload and r["trace"] == 0 and r["result"]["correct"]]
            if len(values) < 2:
                continue
            s = spread(values)
            flag = "" if s < bound / 3 else ("  above a third of the bound" if s <= bound else "  ABOVE BOUND")
            print(f"{workload:<10} {name:<14} median {quartiles(values)[1]:<12.6g} "
                  f"spread {s:.3f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
