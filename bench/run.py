"""Benchmark of the iqcc solver: end-to-end metrics, or per-layer with --trace 1.

    python3 bench/run.py --workload mapped-8q --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout (the package is imported from
`src/`, nothing needs installing).  Each workload runs in a process of its
own, so its set-up time and peak memory are its own; `all` runs every
workload in turn.  Set-up is timed in that process and in
`SETUP_PROBES` extra processes that stop once their inputs are ready, and
the median is reported.  Workloads, metrics and units are declared in
`BENCHMARK.json`; the last line printed is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a workload still running this long after its start is stopped


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return platform.processor() or "unknown"


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "iqcc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _start(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it printed `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Standard output of a worker that exited with 0; a worker still running is killed."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker still running after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes, then the measured worker; returns its result plus set-up times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one solve at a time on one thread, unless the caller asks for more
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir)]
    start = time.perf_counter()
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, ready = _start(args + ["--setup-only"], env)
            _finish(proc, timeout=60)
            setups.append(ready)
        proc, ready = _start(args, env)
        setups.append(ready)
        out = _finish(proc, timeout=max(RUN_LIMIT_S - (time.perf_counter() - start), 1.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def _result_line(spec: dict, result: dict, trace: int) -> dict:
    """The contract line: every declared metric, with its declared unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = {**result["metrics"], **result["layers"]} if trace else result["metrics"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    if not trace:
        missing = {m["name"] for m in declared} - set(values)
        if missing:
            raise RuntimeError(f"worker did not measure {sorted(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _report(spec: dict, name: str, seed: int, trace: int, result: dict) -> None:
    """Lines ahead of the result line: environment, step times, phase times, result quality."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    env = {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        **result["environment"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload_process": {"pid": result["pid"], "workloads": [name]},
    }
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "workload": name, "seed": seed, "trace": trace,
        "steps": result["steps"],
        "untraced_step_s": result["untraced_step_s"], "traced_step_s": result["traced_step_s"],
        "setup_samples_s": result["setup_samples_s"],
        **{k: {m: {"value": v, "unit": units[m]} for m, v in result[k].items()} for k in ("phases", "quality")},
        "output_sha256": result["output_sha256"], "problems": result["problems"],
    }))
    if trace:
        print(f"tracing overhead ({name}): {result['layers']['bench.trace_overhead_s']:+.3f} s per pass")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "iqcc" / "__init__.py").is_file():
        print(f"error: no iqcc sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=names + ["all"], required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the inputs (0: the acceptance-suite instances)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics instead")
    args = p.parse_args(argv)

    lines = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            line = _result_line(spec, result, args.trace)
        except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _report(spec, name, args.seed, args.trace, result)
        lines[name] = line
        if args.workload == "all":
            print(json.dumps({"workload": name, **line}))
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{n}/{k}": v for n, line in lines.items() for k, v in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
