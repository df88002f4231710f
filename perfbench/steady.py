#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly and reports the spread.

    python3 perfbench/steady.py --workload <name> [--runs 10]
        [--first-seed 1] [--sets 1|2]

Run it from the repository root. Each run lasts BENCHMARK.json's
run_seconds and gets its own seed (first-seed, first-seed + 1, ...). For
every end-to-end metric in BENCHMARK.json it prints the median and
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
and flags a spread wider than the metric's bound. With --sets 2 it runs
a second set on fresh seeds and flags every metric whose second median
differs from the first, either way, by more than its bound, and any
difference in the share of failed operations.

It stops, after the first run, when the busy threads the benchmark
reports (workers + producer + control thread, on its `run:` line)
exceed this host's processor count: the figures would then measure the
scheduler. Exit status: 0 when nothing was flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds):
    full = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(full, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("seed %d: no output (exit %d)" % (seed, p.returncode))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("run:") and "busy threads" in line:
            busy = int(line.split("busy threads")[0].split(",")[-1])
            if busy > (os.cpu_count() or 1):
                raise SystemExit("refusing: %d busy threads > %d processors"
                                 % (busy, os.cpu_count() or 1))
    return p.returncode, result


def one_set(cmd, bench, workload, seeds, seconds):
    values = {m["name"]: [] for m in bench["end_to_end"]}
    attempted = failed = 0
    for seed in seeds:
        rc, r = run_once(cmd, workload, seed, seconds)
        attempted += r["attempted"]
        failed += r["failed"]
        status = "ok" if rc == 0 and r["correct"] and r["failed"] == 0 else \
            "FAILED (exit %d, correct %s, failed %d)" % (rc, r["correct"], r["failed"])
        print("  seed %-4d %s  %s" % (seed, status, "  ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())))
        sys.stdout.flush()
        for name in values:
            values[name].append(r["metrics"][name]["value"])
    return values, attempted, failed


def summarize(bench, values):
    flagged = []
    medians = {}
    print("  %-18s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        medians[m["name"]] = med
        flag = ""
        if spread > m["bound"]:
            flag = "  WIDER THAN BOUND"
            flagged.append(m["name"])
        elif spread > m["bound"] / 3:
            flag = "  (above a third of the bound)"
        print("  %-18s %14.6g %14.6g %14.6g %8.4f %6.2f%s" %
              (m["name"], med, q1, q3, spread, m["bound"], flag))
    return medians, flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    a = ap.parse_args()
    if a.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        ap.error("unknown workload %s" % a.workload)
    seconds = bench["run_seconds"]
    flagged = []
    sets = []
    for s in range(a.sets):
        seeds = [a.first_seed + s * a.runs + i for i in range(a.runs)]
        print("set %d: %s, seeds %d..%d, %d s per run" %
              (s + 1, a.workload, seeds[0], seeds[-1], seconds))
        values, att, fail = one_set(bench["command"], bench, a.workload,
                                    seeds, seconds)
        medians, f = summarize(bench, values)
        flagged += f
        print("  failed share: %d / %d" % (fail, att))
        sets.append((medians, fail / att if att else 0.0))
    if a.sets == 2:
        (m1, share1), (m2, share2) = sets
        print("set 2 against set 1:")
        for m in bench["end_to_end"]:
            n = m["name"]
            change = (m2[n] - m1[n]) / m1[n]
            worse = change > 0 if m["better"] == "lower" else change < 0
            flag = ""
            if abs(change) > m["bound"]:
                flag = "  %s BY MORE THAN BOUND" % ("WORSE" if worse else "BETTER")
                flagged.append(n + " (median)")
            print("  %-18s %+8.4f of the first median (bound %.2f)%s" %
                  (n, change, m["bound"], flag))
        if share1 != share2:
            flagged.append("failed share")
            print("  failed share differs: %.6g vs %.6g" % (share1, share2))
    if flagged:
        print("flagged: " + ", ".join(flagged))
        return 1
    print("steady: every spread within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
