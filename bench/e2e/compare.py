#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as `run.py --results FILE` (and
so run.sh) appends them. For every end_to_end metric of BENCHMARK.json
and every workload, prints each side's median and quartiles and one
verdict:

  improved    the change wins at least 9 of 10 runs paired by seed, and
              the medians differ by more than the parent's quartile
              distance
  regressed   the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the spread (quartile distance over median) of either side
              is wider than the bound, and the runs of one side do not
              all beat the runs of the other
  unchanged   otherwise

Then compares the share of failed runs. Exits 1 when anything regressed
or the change failed a larger share of its runs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path):
    runs = {}  # workload -> list of run results
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if run.get("trace", 0) == 0:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """parent/change: lists of (seed, value)."""
    sign = 1 if better == "higher" else -1
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    worsening = sign * (pm - cm) / pm if pm else 0
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    # Signed so that larger always reads better.
    pk = [sign * v for v in pv]
    ck = [sign * v for v in cv]
    separated = min(ck) > max(pk) or min(pk) > max(ck)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > 0 and
            abs(cm - pm) > p3 - p1):
        result = "improved"
    elif spread > bound and not separated:
        result = "unresolved"
    elif worsening > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return result, (p1, pm, p3), (c1, cm, c3), worsening, spread


def failed_share(runs):
    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    return failed, attempted


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    bad = False
    print(f"{'workload':14s} {'metric':16s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'worse':>7s} {'spread':>7s} verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            pick = lambda runs: [(r["seed"], r["metrics"][name]["value"])
                                 for r in runs if name in r["metrics"]]
            p, c = pick(parent[workload]), pick(change[workload])
            if not p or not c:
                continue
            result, pq, cq, worse, spread = verdict(p, c, m["better"],
                                                    m["bound"])
            bad |= result == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:14s} {name:16s} {fmt(pq):>32s} {fmt(cq):>32s} "
                  f"{worse:+7.3f} {spread:7.3f} {result}")
    pf, pa = failed_share(parent)
    cf, ca = failed_share(change)
    more_failed = ca and pa and cf / ca > pf / pa
    print(f"failed runs: parent {pf}/{pa}, change {cf}/{ca}"
          f"{' -- the change fails more' if more_failed else ''}")
    return 1 if bad or more_failed else 0


if __name__ == "__main__":
    sys.exit(main())
