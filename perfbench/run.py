"""linkatlas benchmark: one workload, one closed-loop client, in process.

    python3 perfbench/run.py --workload sweep7 --seed 1 --seconds 10 --trace 0

Run from the root of a linkatlas checkout: the program is imported from
./src.  The run repeats whole rounds of the workload's CLI calls
(`linkatlas.cli.main([...] + ["--json"])`) until --seconds have passed,
checks every output against perfbench/oracles.py, and prints one JSON
object as its last line.  --trace 0 reports the end-to-end metrics;
--trace 1 wraps the cross-module calls (perfbench/tracer.py) and reports
per-layer figures per round instead.  A human-readable summary goes to
stderr.

run_rel is the median round's time over the median time of the probe
(perfbench/probe.py), a fixed computation apart from linkatlas that runs
before the first round, after every round and between calls, once for
every PROBE_EVERY seconds since it last ran (at most PROBE_BURST times
in a row).  The host's slow and fast stretches change both times alike;
a change to the program changes only the first.  The raw round time is
printed on stderr.

setup_s is the median of several set-ups: the one whose inputs the run
uses, one more between calls whenever SETUP_EVERY seconds, and at least
SETUP_GAP times the last set-up's length, have passed since the last,
and more after the last round until there are SETUP_SAMPLES.  Spreading
them over the run keeps one slow stretch of a shared host from setting
the figure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Runner  # noqa: E402

SRC = os.path.abspath("src")
# fewest set-ups timed per untraced run; setup_s is their median
SETUP_SAMPLES = 5
# least seconds between the end of one timed set-up and the next, during a run
SETUP_EVERY = 5.0
# ... and least multiple of the last set-up's length between them
SETUP_GAP = 3.0
# seconds of run per probe taken between calls, and most probes in a row
PROBE_EVERY = 0.5
PROBE_BURST = 4


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def set_up(args, directory):
    """One timed set-up: a fresh interpreter importing linkatlas.cli, as
    a CLI start does, then the workload's inputs made in `directory`.
    Returns the prepared workload and the seconds it took."""
    os.mkdir(directory)
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import linkatlas.cli"],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    workload = WORKLOADS[args.workload](args.seed, directory)
    workload.prepare()
    return workload, perf_counter() - t0


class SetupSampler:
    """Times further set-ups during and after a run, each in a directory
    of its own that is removed again."""

    def __init__(self, args, tmp, first_seconds):
        self.args, self.tmp = args, tmp
        self.seconds = [first_seconds]
        self.last = perf_counter()

    def sample(self) -> None:
        directory = os.path.join(self.tmp, "setup%d" % len(self.seconds))
        _, seconds = set_up(self.args, directory)
        shutil.rmtree(directory)
        self.seconds.append(seconds)
        self.last = perf_counter()

    def between_calls(self) -> None:
        if perf_counter() - self.last >= max(SETUP_EVERY, SETUP_GAP * self.seconds[-1]):
            self.sample()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "linkatlas", "cli.py")):
        print("error: run from a linkatlas checkout (no src/linkatlas here)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp) -> int:
    workload, seconds = set_up(args, os.path.join(tmp, "run"))
    setups = SetupSampler(args, tmp, seconds)
    rss_before_calls = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import linkatlas.cli
    from probe import Probe

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_totals

        tracer = Tracer()
        tracer.install()
        tracer.take()
    probe = Probe(PROBE_EVERY, PROBE_BURST)

    def between_calls():
        if not tracer:
            setups.between_calls()
        probe.between_calls()

    runner = Runner(lambda argv: linkatlas.cli.main(argv), between_calls)
    round_seconds = []
    layer_rounds = []
    start = perf_counter()
    probe.sample()
    while True:
        began = perf_counter()
        first = len(runner.calls)
        workload.round(runner)
        probe.sample()
        round_seconds.append(sum(c[1] for c in runner.calls[first:]))
        round_wall = perf_counter() - began
        if tracer:
            layer_rounds.append(layer_totals(tracer.take()))
        # start another round only if one more as long as the last still fits
        if perf_counter() - start + round_wall > args.seconds:
            break
    if tracer:
        tracer.uninstall()
    while not tracer and len(setups.seconds) < SETUP_SAMPLES:
        setups.sample()
    workload.finish(runner)

    run_rel = statistics.median(round_seconds) / statistics.median(probe.seconds)
    if tracer:
        metrics = per_layer(layer_rounds, run_rel)
    else:
        metrics = {
            "setup_s": (statistics.median(setups.seconds), "s"),
            "run_rel": (run_rel, "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    summarize(args, workload, runner, round_seconds, probe, metrics, len(setups.seconds),
              rss_before_calls)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer(layer_rounds, run_rel) -> dict:
    """Per-round means of the traced figures (counts stay whole numbers
    when every round does the same work)."""
    from tracer import METRICS

    out = {}
    n = len(layer_rounds)
    for name, unit, _ in METRICS:
        if name == "traced.run_rel":
            value = run_rel
        else:
            total = sum(r[name] for r in layer_rounds)
            value = total / n
            if unit in ("count", "B", "cells") and total % n == 0:
                value = int(total // n)
        out[name] = (value, unit)
    return out


def summarize(args, workload, runner, round_seconds, probe, metrics, setups,
              rss_before_calls) -> None:
    """Human-readable report on stderr: the result metrics, then figures
    that are not gated: the raw round time and the probe's, the
    benchmark's own share of the peak resident set (its peak before the
    first call), the tail latency, per-call-kind medians and the search
    throughput."""
    err = sys.stderr
    print("workload %s seed %d: %d rounds, %d calls, %d failed, %d set-ups"
          % (args.workload, args.seed, len(round_seconds), runner.attempted, runner.failed,
             setups), file=err)
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit), file=err)
    print("  %-32s %14.6g s" % ("run_s", statistics.median(round_seconds)), file=err)
    print("  %-32s %14.6g ms  (%d probes)" % ("probe_ms", 1e3 * statistics.median(probe.seconds),
                                              len(probe.seconds)), file=err)
    print("  %-32s %14.6g MB" % ("rss_before_calls_mb", rss_before_calls), file=err)
    kinds = workload.latency_kinds
    latencies = [s * 1e3 for kind, s, ok in runner.calls if ok and (kinds is None or kind in kinds)]
    if latencies:
        for name, value in (("call_ms.p50", statistics.median(latencies)),
                            ("call_ms.p90", percentile(latencies, 90))):
            print("  %-32s %14.6g ms  (%d calls)" % (name, value, len(latencies)), file=err)
    by_kind: dict[str, list[float]] = {}
    for kind, seconds, ok in runner.calls:
        if ok:
            by_kind.setdefault(kind, []).append(seconds * 1e3)
    for kind, values in sorted(by_kind.items()):
        print("  %-32s %14.6g ms  (%d calls)" % (kind + "_ms.p50", statistics.median(values), len(values)), file=err)
    members = getattr(workload, "members", None)
    if members and kinds and kinds[0] in by_kind:
        rate = members / (statistics.median(by_kind[kinds[0]]) / 1e3)
        print("  %-32s %14.6g 1/s" % ("members_per_s", rate), file=err)
    for problem in runner.problems[:20]:
        print("  WRONG: %s" % problem, file=err)


if __name__ == "__main__":
    sys.exit(main())
