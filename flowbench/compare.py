#!/usr/bin/env python3
"""Compare two flowbench result sets, workload by workload.

    python3 flowbench/compare.py BASE.json NEW.json

A result set is what `flowbench/record.py` writes: a JSON object with a
`meta` block and a `runs` list, each run holding its workload, seed,
trace flag and the benchmark's result line. For every workload and
metric the script prints both sides' median and quartiles (as Python's
`statistics.quantiles(values, n=4)` gives them) and, for end-to-end
metrics, a verdict against the metric's bound from BENCHMARK.json:

- improved:   every new run beats every base run, or the medians moved in
              the better direction by more than the base's own spread and
              new runs win at least nine tenths of all (base, new) pairs;
- no worse:   the new median is within the bound of the base median;
- worse:      the new median is worse by more than the bound;
- unresolved: either side's spread (quartile distance over median)
              exceeds the bound, so the runs cannot tell;
- more failures: the new set has more failed operations, or more runs
              that failed their checks, than the base on this workload.
              A run that skips failed work can look faster, so no
              metric of the workload gets another verdict, and the
              workload's heading is flagged.

Each workload's heading gives both sides' failed operations over those
attempted, summed over all its runs, and how many runs failed their
checks (those runs are left out of the medians).

Per-layer metrics have no bound; they get medians, quartiles and the
relative change only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def quartiles(values):
    """(q1, median, q3) of `values`, matching statistics.quantiles(n=4)."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 for a zero median
    with no spread, infinity for a zero median with spread)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def change(base, new):
    """Relative change of the new median over the base median."""
    mb, mn = quartiles(base)[1], quartiles(new)[1]
    if mb == 0:
        return 0.0 if mn == 0 else float("inf")
    return (mn - mb) / abs(mb)


def win_share(base, new, better):
    """Share of all (base, new) run pairs in which the new run is better."""
    wins = sum((n < b) if better == "lower" else (n > b) for n in new for b in base)
    return wins / (len(base) * len(new))


def verdict(base, new, better, bound):
    """One of improved / no worse / worse / unresolved (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * change(base, new)
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if all_better:
        return "improved"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(base) and win_share(base, new, better) >= 0.9:
        return "improved"
    return "no worse"


def load(path):
    with open(path) as f:
        data = json.load(f)
    if "runs" not in data:
        raise ValueError(f"{path}: not a result set (no 'runs')")
    return data


def values_by_workload(result_set, trace):
    """{workload: {metric: [values...]}} over the runs with this trace flag."""
    out = {}
    for run in result_set["runs"]:
        if int(run["trace"]) != trace or not run["result"].get("correct"):
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(float(m["value"]))
    return out


def failures(result_set):
    """{workload: (failed, attempted, runs that failed their checks)}
    over all runs, traced or not."""
    out = {}
    for run in result_set["runs"]:
        failed, attempted, incorrect = out.get(run["workload"], (0, 0, 0))
        r = run["result"]
        out[run["workload"]] = (failed + int(r["failed"]), attempted + int(r["attempted"]),
                                incorrect + (not r.get("correct")))
    return out


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def report(base, new, benchmark):
    lines = []
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    fb, fn = failures(base), failures(new)
    for trace, title in ((0, "end-to-end"), (1, "per-layer")):
        vb, vn = values_by_workload(base, trace), values_by_workload(new, trace)
        for workload in [w["name"] for w in benchmark["workloads"]]:
            if workload not in vb or workload not in vn:
                continue
            (b_failed, b_tried, b_bad), (n_failed, n_tried, n_bad) = fb[workload], fn[workload]
            more_failures = n_failed > b_failed or n_bad > b_bad
            heading = f"== {workload} ({title})"
            if trace == 0:
                heading += (f"  failed ops base {b_failed}/{b_tried} new {n_failed}/{n_tried},"
                            f" failed-check runs base {b_bad} new {n_bad}")
                if more_failures:
                    heading += "  MORE FAILURES"
            lines.append(heading)
            for name in vb[workload]:
                if name not in vn[workload]:
                    continue
                a, b = vb[workload][name], vn[workload][name]
                row = f"  {name:<30} base {fmt(a):<44} new {fmt(b):<44} change {change(a, b):+.2%}"
                if trace == 0 and name in bounds:
                    m = bounds[name]
                    v = "more failures" if more_failures else verdict(a, b, m["better"], m["bound"])
                    row += f"  bound {m['bound']:.0%}  {v}"
                lines.append(row)
    return lines


def main(argv):
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(here.parent / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    base, new = load(args.base), load(args.new)
    for side, data in (("base", base), ("new", new)):
        meta = data.get("meta", {})
        print(f"# {side}: {meta.get('label', '?')} nproc={meta.get('nproc')} threads={meta.get('threads')}")
    lines = report(base, new, benchmark)
    print("\n".join(lines) if lines else "no workload is in both result sets")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
