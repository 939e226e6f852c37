#!/usr/bin/env python3
"""End-to-end benchmark: one workload, one seed, one mode.

    python3 bench/e2e/run.py --workload consolidation --seed 1 \
        --seconds 25 --trace 0

Builds fglb_e2e, fglb_sim and fglb_tracecat from this checkout into
.bench_build/e2e (incrementally), then:

  --trace 0  runs the workload on SUBSEEDS seeds derived from --seed, one
             fresh fglb_e2e process each, and keeps cycling through them
             until --seconds have passed. Reports BENCHMARK.json's
             end_to_end metrics.
  --trace 1  runs --seed untraced until --seconds have passed, then once
             traced. Reports BENCHMARK.json's per_layer metrics.

Every run is checked. The action list of every run of --seed must equal
`fglb_sim --output=actions-csv` for the same seed byte for byte; a repeat
of any seed must reproduce that seed's first run exactly; no run may
complete or shed more queries than were submitted; a traced run must
count the same queries and accesses as an untraced one, and its decision
trace must pass `fglb_tracecat --check`.

Prints one line per metric, then as the last line one JSON object with
the keys correct, attempted, failed and metrics. Exits 1 when a check
failed, and without a result when the program cannot be built.
"""

import argparse
import filecmp
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "e2e"
OUT = ROOT / "build" / "e2e"
WORKLOADS = ("consolidation", "overload", "tier-thrash", "chaos-net")
# Each timed run averages over this many seeds, so one seed's controller
# history (how many diagnoses it triggers) does not decide the result.
SUBSEEDS = 10
SUBSEED_STRIDE = 1_000_003
SETUP_SAMPLES = 10
# A run must end within 180 s of starting (900 s when it builds).
BUILD_BUDGET_S = 780
RUN_BUDGET_S = 165
# Outputs a repeat of one seed must reproduce exactly.
DETERMINISTIC = ("accesses", "submitted", "completed", "sla_ok", "shed",
                 "violation_intervals", "servers_avg")
JOBS = len(os.sched_getaffinity(0))
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
DEADLINE = 0.0  # monotonic time by which every child must have ended


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, deadline, log):
    """Runs a build step in its own process group and kills the whole
    group (make and the compilers under it) if it outlives `deadline` or
    this script is interrupted."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=log,
                            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        return proc.wait(timeout=max(1, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    deadline = time.monotonic() + BUILD_BUDGET_S
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = [["cmake", "--build", str(BUILD), "-j", str(JOBS), "--target",
              "fglb_e2e", "fglb_sim_cli", "fglb_tracecat"]]
    if not (BUILD / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = run_group(cmd, deadline, log)
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                die(f"build failed ({code}): " + " ".join(cmd))


class Checks:
    """Counts checked runs and the ones whose outputs were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def run_child(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True,
                              text=True,
                              timeout=max(1, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        die(f"out of time running {cmd[0]}")


def e2e(workload, seed, mode, actions=None, trace=None):
    cmd = [str(BUILD / "fglb_e2e"), f"--workload={workload}",
           f"--seed={seed}", f"--mode={mode}"]
    if actions is not None:
        cmd.append(f"--actions-out={actions}")
    if trace is not None:
        cmd.append(f"--trace-out={trace}")
    proc = run_child(cmd)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference(workload, seed, duration):
    """fglb_sim's action list for the seed: the output runs must match."""
    path = OUT / f"{workload}.{seed}.ref.csv"
    proc = run_child([str(BUILD / "tools" / "fglb_sim"),
                      f"--scenario={workload}", f"--duration={duration:g}",
                      f"--seed={seed}", f"--fault-seed={seed}",
                      "--output=actions-csv", "--log-level=quiet"])
    if proc.returncode != 0:
        die(f"fglb_sim failed: {proc.stderr}")
    path.write_text(proc.stdout)
    return path


def conserved(r):
    return r["completed"] + r["shed"] <= r["submitted"]


def timed_runs(workload, seeds, seconds, ref, checks):
    """Timed runs cycling through `seeds` (each at least once) until
    `seconds` pass. Every run's actions must match its seed's first run,
    and the first seed's must match fglb_sim."""
    runs = []
    first = {}  # seed -> (actions file, result) of its first run
    start = time.monotonic()
    i = 0
    while i < len(seeds) or time.monotonic() - start < seconds:
        seed = seeds[i % len(seeds)]
        i += 1
        repeat = seed in first
        actions = OUT / (f"{workload}.repeat.csv" if repeat
                         else f"{workload}.{seed}.csv")
        r = e2e(workload, seed, "timed", actions=actions)
        if r is None:
            checks.record(False, f"{workload} seed {seed} run crashed")
            continue
        expected = ref if seed == seeds[0] else (
            first[seed][0] if repeat else None)
        ok = conserved(r) and (
            expected is None or filecmp.cmp(actions, expected, shallow=False))
        if repeat:
            ok = ok and all(r[k] == first[seed][1][k] for k in DETERMINISTIC)
        checks.record(ok, f"{workload} seed {seed}: actions or counts differ "
                          f"from {expected.name if expected else 'invariants'}")
        r["first_of_seed"] = not repeat
        if not repeat:
            first[seed] = (actions, r)
        runs.append(r)
    return runs


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def failed_share(r):
    """Shed queries plus completions over their SLA, per query ended."""
    ended = r["completed"] + r["shed"]
    return (ended - r["sla_ok"]) / ended


def end_to_end(runs, setups):
    ticks = [t for r in runs for t in r["tick_us"]]
    once = [r for r in runs if r["first_of_seed"]]  # one run per seed
    median = statistics.median
    metrics = {
        "sim_speed": median(r["sim_s"] / r["wall_s"] for r in runs),
        "accesses_per_s": median(r["accesses"] / r["wall_s"] for r in runs),
        "tick_mean_us": statistics.fmean(ticks),
        "setup_s": median(setups + [r["setup_s"] for r in runs]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "goodput_qps": median(r["sla_ok"] / r["sim_s"] for r in once),
        "failed_share": median(failed_share(r) for r in once),
        "servers_avg": median(r["servers_avg"] for r in once),
    }
    notes = {"tick_mean_us": f"of {len(ticks)} ticks from {len(runs)} runs",
             "sim_speed": f"median of {len(runs)} runs over {len(once)} seeds"}
    return metrics, notes


def per_layer(workload, seed, seconds, ref, checks):
    runs = timed_runs(workload, [seed], seconds, ref, checks)
    trace = OUT / f"{workload}.trace.jsonl"
    actions = OUT / f"{workload}.{seed}.traced.csv"
    traced = e2e(workload, seed, "traced", actions=actions, trace=trace)
    if traced is None or not runs:
        checks.record(False, f"{workload} traced or untraced runs crashed")
        return None, {}
    checks.record(
        filecmp.cmp(actions, ref, shallow=False) and conserved(traced) and
        all(traced[k] == runs[0][k] for k in DETERMINISTIC),
        f"{workload} traced run differs from the untraced one")
    tracecat = run_child([str(BUILD / "tools" / "fglb_tracecat"), str(trace),
                          "--check"])
    checks.record(tracecat.returncode == 0,
                  f"fglb_tracecat --check {trace}: {tracecat.stdout}"
                  f"{tracecat.stderr}")
    ticks = [t for r in runs for t in r["tick_us"]]
    metrics = dict(traced["layers"])
    metrics["core.tick_p99_us"] = percentile(ticks, 99)
    metrics["trace.overhead"] = traced["wall_s"] / statistics.median(
        r["wall_s"] for r in runs)
    return metrics, {
        "core.tick_p99_us": f"of {len(ticks)} untraced ticks",
        "trace.overhead": f"traced / median of {len(runs)} untraced runs"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="also append the result to this JSONL file")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running build is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(parents=True, exist_ok=True)

    checks = Checks()
    setups = []
    for _ in range(SETUP_SAMPLES):
        r = e2e(args.workload, args.seed, "setup")
        if r is None:
            die("fglb_e2e --mode=setup failed")
        setups.append(r["setup_s"])
    ref = reference(args.workload, args.seed, r["sim_s"])
    if args.trace:
        metrics, notes = per_layer(args.workload, args.seed, args.seconds,
                                   ref, checks)
    else:
        seeds = [args.seed + i * SUBSEED_STRIDE for i in range(SUBSEEDS)]
        runs = timed_runs(args.workload, seeds, args.seconds, ref, checks)
        (OUT / f"{args.workload}.{args.seed}.runs.json").write_text(
            json.dumps({"setups": setups, "runs": runs}))
        metrics, notes = end_to_end(runs, setups) if runs else (None, {})
    if metrics is None:
        die("no run completed")

    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": {}}
    for m in wanted:
        value = metrics[m["name"]]
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"{args.workload:14s} {m['name']:30s} {value:14.6g} "
              f"{m['unit']:8s} {note}")
    if args.results is not None:
        with open(args.results, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
