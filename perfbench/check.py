#!/usr/bin/env python3
"""The benchmark's own checks. Run from the root of a checkout.

    python3 perfbench/check.py self
        Quick self-check: every workload at its tiny size, untraced and
        traced; each run must exit 0, report correct with no failures,
        and print exactly the metrics BENCHMARK.json names for its mode,
        each with the unit BENCHMARK.json gives.

    python3 perfbench/check.py spread [--workloads a,b] [--seeds N] [--first S]
        Steadiness: N untraced runs per workload, seeds S..S+N-1, at
        BENCHMARK.json's run_seconds. Prints each end-to-end metric's
        median and its quartile spread (Q3 - Q1) / median, against the
        metric's bound (setup_s is judged only by its median).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(b, workload, seed, seconds, trace, tiny=False):
    cmd = list(b["command"]) + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: "
                         f"exit {r.returncode}")
    return json.loads(lines[-1]), r.stdout


def check_result(b, workload, trace, res):
    want = {m["name"]: m["unit"]
            for m in b["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True:
        problems.append("not correct")
    if res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"attempted {res.get('attempted')} failed "
                        f"{res.get('failed')}")
    got = res.get("metrics", {})
    for name, unit in want.items():
        if name not in got:
            problems.append(f"missing {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"{name} unit {got[name].get('unit')} != {unit}")
    for name in got:
        if name not in want:
            problems.append(f"unexpected {name}")
    return problems


def self_check(b):
    bad = 0
    for w in b["workloads"]:
        for trace in (0, 1):
            res, _ = run(b, w["name"], 1, 2, trace, tiny=True)
            problems = check_result(b, w["name"], trace, res)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:16s} trace={trace} {status}")
            bad += bool(problems)
    return 1 if bad else 0


def spread(b, workloads, seeds, first):
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(first, first + seeds):
            res, _ = run(b, w, seed, b["run_seconds"], 0)
            problems = check_result(b, w, 0, res)
            if problems:
                raise SystemExit(f"FAIL {w} seed {seed}: " + "; ".join(problems))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                flush=True)
        for m in b["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            s = (q3 - q1) / med
            flag = "ok" if s <= m["bound"] / 3 else (
                "WITHIN BOUND" if s <= m["bound"] else "OVER BOUND")
            if m["name"] == "setup_s":
                flag = "median only"
            else:
                worst = max(worst, s / m["bound"])
            print(f"{w:16s} {m['name']:14s} median {med:12.4f} "
                  f"spread {s:7.4f} bound {m['bound']:5.2f} {flag}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["self", "spread"])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first", type=int, default=1)
    a = ap.parse_args()
    b = bench()
    if a.mode == "self":
        return self_check(b)
    names = a.workloads.split(",") if a.workloads else [
        w["name"] for w in b["workloads"]]
    return spread(b, names, a.seeds, a.first)


if __name__ == "__main__":
    sys.exit(main())
