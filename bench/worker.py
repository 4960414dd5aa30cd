"""One workload in one process: set up, then timed passes until time is up.

Started by `run.py`, never by hand.  It prints `ready` on stdout as soon as
the inputs exist (the parent times process start to that line as set-up
time), and, unless `--setup-only` is given, one JSON line with the pass
results at the end.  Output of the command line under test is captured, so
these are the only lines on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, install_layers, install_timers, self_time
from workloads import WORKLOADS, quality


def _openblas_version() -> str | None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("openblas configuration") or blas.get("version")


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _step_sum(passes: list[dict]) -> float:
    """Time of one pass, each step taken as its median over the passes."""
    return sum(_median(times) for times in zip(*(r["steps"] for r in passes))) if passes else 0.0


def run_pass(steps, tracer) -> tuple[list[float], list, list[list[str]]]:
    """One pass under `tracer`: the time of each step, the solver runs and their checks."""
    times, solves = [], []
    try:
        for _, step in steps:
            t0 = time.perf_counter()
            solves.extend(step())
            times.append(time.perf_counter() - t0)
    except Exception:  # a crashing pass is a failed operation, reported below
        traceback.print_exc()
        return times, [], [["pass raised"]]
    finally:
        tracer.restore()
    return times, solves, [s.check() for s in solves]


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run passes until the next one would end after `seconds`.

    Each step of a pass (one solver run, one oracle solve, one command) is
    timed on its own, and a pass's time is the sum of its steps' medians
    over the passes: steps repeat round-robin, so a burst of load from
    elsewhere on the machine slows a minority of each step's repeats and
    moves the median little.  With `trace` every second pass is fully
    traced, so one process yields both the per-layer figures and the
    tracing overhead; at least one pass of each kind runs.
    """
    steps = workload.steps()
    untraced, traced, problems = [], [], []
    attempted = failed = 0
    first_output = None
    start = time.perf_counter()
    while True:
        is_traced = trace and len(untraced) > len(traced)
        tracer = Tracer()
        (install_layers if is_traced else install_timers)(tracer)
        times, solves, checks = run_pass(steps, tracer)

        output = hashlib.sha256(b"".join(s.output for s in solves)).hexdigest()
        first_output = first_output or output
        if output != first_output:
            checks = [c + ["seeded output differs from the first pass"] for c in checks]
        attempted += len(checks)
        failed += sum(1 for c in checks if c)
        problems.extend(p for c in checks for p in c)

        record = {"steps": times, "values": dict(tracer.values), "quality": quality(solves) if solves else {}}
        (traced if is_traced else untraced).append(record)
        pass_s = _median([sum(r["steps"]) for r in untraced + traced])
        enough = not trace or traced
        if problems or (enough and time.perf_counter() - start + pass_s > seconds):
            break

    metrics = {
        "wall_s": _step_sum(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the two timed spans never nest, so their self time is their whole time
    phases = {
        "phase.solve_s": _median([r["values"].get("driver.iqcc_run.s", 0.0) for r in untraced]),
        "phase.oracle_s": _median([r["values"].get("exact.ground_state.s", 0.0) for r in untraced]),
    }
    layers = {}
    if traced:
        keys = set().union(*(r["values"] for r in traced))
        layers = {k: _median([r["values"].get(k, 0.0) for r in traced]) for k in keys}
        before = layers.pop("compression.terms_before", 0.0)
        after = layers.pop("compression.terms_after", 0.0)
        layers["compression.kept_ratio"] = after / before if before else 1.0
        layers["bench.traced_wall_s"] = _step_sum(traced)
        layers["bench.trace_overhead_s"] = layers["bench.traced_wall_s"] - metrics["wall_s"]
        layers["bench.outside_s"] = _median([sum(r["steps"]) - self_time(r["values"]) for r in traced])
        layers.update(traced[0]["quality"])
        layers.update(phases)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "steps": [name for name, _ in steps],
        "untraced_step_s": [r["steps"] for r in untraced],
        "traced_step_s": [r["steps"] for r in traced],
        "quality": untraced[0]["quality"],
        "phases": phases,
        "output_sha256": first_output,
        "metrics": metrics,
        "layers": layers,
        "environment": environment(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    workload.prepare()
    result = measure(workload, args.seconds, bool(args.trace))
    result["pid"] = os.getpid()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
