"""Steadiness check: two sets of runs of the same commit, judged against
the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--seed 1]

Run from the root of a checkout.  Each set runs every workload RUNS
times, each run with its own seed (set 2 continues the seeds of set 1).
For every end-to-end metric and workload it prints each set's median and
quartile spread (Q3 - Q1 over the median), and says whether the spread
stays within the metric's bound, whether the two sets' medians differ by
no more than the bound, and whether the share of failed operations is
the same in both sets.  Exit 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(command, workload, seed, seconds, trace=0) -> tuple[dict, str]:
    """One benchmark run in a subprocess: its JSON result line and its
    stderr summary."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run failed (%s): %s" % (" ".join(argv), proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1, help="first seed of set 1")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            seeds = range(args.seed + s * RUNS, args.seed + (s + 1) * RUNS)
            results = []
            for seed in seeds:
                res, _ = run_once(bench["command"], workload, seed, bench["run_seconds"])
                print("  %s seed %d: %s" % (workload, seed, json.dumps(res)), file=sys.stderr, flush=True)
                ok &= res["correct"]
                results.append(res)
            sets.append(results)
        shares = [
            (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)) for rs in sets
        ]
        same_share = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        ok &= same_share
        print("%s: failed %d/%d and %d/%d -> %s" % (
            workload, *shares[0], *shares[1], "same share" if same_share else "SHARES DIFFER"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            med = [statistics.median(v) for v in values]
            spr = [spread(v) for v in values]
            drift = (med[1] - med[0]) / med[0]
            spread_ok = max(spr) <= bound
            drift_ok = abs(drift) <= bound
            ok &= spread_ok and drift_ok
            print("  %-14s bound %.2f  median %12.6g %12.6g  spread %.3f %.3f  moved %+.3f  %s" % (
                name, bound, med[0], med[1], spr[0], spr[1], drift,
                "ok" if spread_ok and drift_ok else "OUT OF BOUND"))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
