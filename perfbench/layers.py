"""Every workload, untraced then traced: end-to-end and per-layer figures.

    python3 perfbench/layers.py [--seed 1]

Run from the root of a checkout.  For each workload it runs the benchmark
once untraced and once traced with the same seed, and prints the untraced
run's summary (every end-to-end figure by name and unit, calls attempted
and failed), the traced run's per-layer metrics (per round), and the
tracing overhead: traced.run_rel over the untraced run_rel, less one.  End-to-end
figures always come from the untraced run.  spheres.hist_cells is
computed from the call arguments (nvars x 2*lcm per signature call), not
measured.
"""

from __future__ import annotations

import argparse
import json
import sys

from steady import run_once

COMPUTED = {"spheres.hist_cells"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    for workload in [w["name"] for w in bench["workloads"]]:
        plain, summary = run_once(bench["command"], workload, args.seed, seconds, 0)
        traced, _ = run_once(bench["command"], workload, args.seed, seconds, 1)
        print("== %s" % summary.rstrip())
        if not (plain["correct"] and traced["correct"]):
            raise SystemExit("%s: wrong output, see perfbench/run.py --workload %s --seed %d"
                             % (workload, workload, args.seed))
        print("  per layer, per round:")
        for name, m in traced["metrics"].items():
            value = m["value"]
            text = str(value) if isinstance(value, int) else "%.6g" % value
            label = " (computed)" if name in COMPUTED else ""
            print("  %-32s %16s %s%s" % (name, text, m["unit"], label))
        untraced = plain["metrics"]["run_rel"]["value"]
        extra = traced["metrics"]["traced.run_rel"]["value"] / untraced - 1
        print("  %-32s %+15.1f%% (untraced run_rel %.4g x)" % ("tracing overhead", 100 * extra, untraced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
