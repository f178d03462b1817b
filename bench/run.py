#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the src/ directory next to this one.  A run
repeats whole rounds of the workload's seeded input set until ``--seconds``
have passed, then checks the first round's outputs against independent
recomputations and that later rounds repeat it.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it wraps the package's
public functions and reports per-layer figures instead.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAMES = ("sweep", "connectivity", "features", "cli_homology")

# Fresh interpreters timed for setup_s on each side of the timed rounds, so
# that the median of all of them spans the run.
SETUP_PROBES_EACH_SIDE = 3


def import_package() -> None:
    """Put the checkout's src/ and this directory first on the path."""
    package = ROOT / "src" / "nbcomplex"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no package sources at {package}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import nbcomplex
    if Path(nbcomplex.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported nbcomplex from {nbcomplex.__file__}, "
                 f"not from {package}")


def make_workload(name: str, seed: int):
    import workloads
    return workloads.WORKLOADS[name](seed)


def setup_times(name: str, seed: int, probes: int) -> list[float]:
    """Wall times of fresh interpreters that import the package, build the
    workload's inputs and exit."""
    cmd = [sys.executable, "-S", str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(probes):
        started = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - started)
    return times


def run_rounds(work, seconds: float, out_dir: Path):
    """Whole rounds for about ``seconds``: another round starts while less
    than half a round would run past the limit.

    Only the first round's outputs are kept; each later round is compared
    with it outside the timed span, so memory does not grow with the number
    of rounds.  Returns the first outputs, the number of rounds, the rounds
    that differ from the first, the failed ops, the per-op times and the
    timed seconds.
    """
    times: list[float] = []
    first = None
    rounds = failed = 0
    differing = []
    elapsed = 0.0
    while not rounds or elapsed + (elapsed / rounds) / 2 < seconds:
        started = perf_counter()
        result = work.run_round(out_dir, times)
        elapsed += perf_counter() - started
        rounds += 1
        failed += work.failed(result)
        if first is None:
            first = result
        elif not work.same(first, result):
            differing.append(rounds)
        del result  # freed before the next round runs
    return first, rounds, differing, failed, times, elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs and exit (the setup_s probe)")
    args = ap.parse_args(argv)

    import_package()
    if args.setup_only:
        make_workload(args.workload, args.seed)
        return 0
    if not args.trace:
        setup_times(args.workload, args.seed, 1)  # warms byte-code and files
        setup = setup_times(args.workload, args.seed, SETUP_PROBES_EACH_SIDE)
    work = make_workload(args.workload, args.seed)

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            first, rounds, differing, failed, times, elapsed = run_rounds(
                work, args.seconds, out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            setup += setup_times(args.workload, args.seed,
                                 SETUP_PROBES_EACH_SIDE)

        problems = work.check(first)
        problems += [f"round {i} differs from round 1" for i in differing]
        problems += work.check_jobs(first)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    ops = rounds * work.ops
    if args.trace:
        metrics = tracer.metrics(rounds)
        metrics["runtime.traced_ops_per_s"] = {"value": ops / elapsed,
                                               "unit": "1/s"}
    else:
        metrics = {
            "ops_per_s": {"value": ops / elapsed, "unit": "1/s"},
            "op_p50_ms": {"value": median(times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
        if len(times) >= 200:  # ten samples lie beyond the 95th percentile
            metrics["op_p95_ms"] = {
                "value": quantiles(times, n=20)[18] * 1e3, "unit": "ms"}
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
