"""Benchmark of the cyclefactor package: four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from src/ next to this
directory, with no install.  Each workload runs in a fresh interpreter
(closed loop, one client, one operation at a time) with
CYCLEFACTOR_THREADS removed.  With --trace 0 the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run.  The lines before it give the run environment
and the figures that are not bounded metrics.  The exit code is 0 only if
every output passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gadget-cross", "search-8-4", "two-regular", "certify-random")
# setup_s is the median of this many set-ups, each in its own interpreter:
# the measured run's own plus SETUP_REPEATS - 1 set-up-only runs.
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
# A tail percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": git_commit(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CYCLEFACTOR_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> dict:
    """Run workloads.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, "-s", str(HERE / "workloads.py"), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> str:
    """Highest nearest-rank percentile with TAIL_SAMPLES samples beyond it."""
    n = len(latencies)
    if n <= TAIL_SAMPLES:
        return f"n/a: {n} ops leave no percentile with {TAIL_SAMPLES} samples beyond it"
    value = sorted(latencies)[n - TAIL_SAMPLES - 1]
    pct = 100 * (n - TAIL_SAMPLES) / n
    return f"{value:.6f} s (p{pct:.1f} of {n} ops, {TAIL_SAMPLES} beyond)"


def scaled_latencies(run: dict) -> list[float]:
    """Op latencies in reference seconds (see speed.py)."""
    ref = run["reference_kernel_s"]
    return [t * ref / k for t, k in zip(run["latencies"], run["op_kernel_s"])]


def scaled_setup(run: dict) -> float:
    """Set-up time in reference seconds, from the kernel samples taken after it."""
    return run["setup_s"] * run["reference_kernel_s"] / run["setup_kernel_s"]


def measure(name: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    run = run_child(common + ["--trace", "0"])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setups = [run] + [run_child(common + ["--setup-only"]) for _ in range(SETUP_REPEATS - 1)]
    raw = run["latencies"]
    lat = scaled_latencies(run)
    metrics = {
        "setup_s": (statistics.median(scaled_setup(p) for p in setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    notes = [
        f"op_tail_s     {tail(lat)}",
        f"unscaled      op_p50 {statistics.median(raw):.6f} s, ops/s {len(raw) / sum(raw):.6g}, "
        f"setup {statistics.median(p['setup_s'] for p in setups):.6f} s",
        f"speed kernel  median {statistics.median(run['op_kernel_s']):.6f} s around ops "
        f"(reference {run['reference_kernel_s']} s)",
    ]
    return {**run, "metrics": metrics}, notes


def trace(name: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    run = run_child(common + ["--trace", "1"])
    metrics = {key: tuple(pair) for key, pair in run["per_layer"].items()}
    notes = [f"spans         perfbench/out/spans-{name}-seed{seed}.tsv"]
    return {**run, "metrics": metrics}, notes


def report(name: str, seed: int, seconds: int, traced: int) -> bool:
    result, notes = (trace if traced else measure)(name, seed, seconds)
    print(f"# workload={name} seed={seed} seconds={seconds} trace={traced} "
          f"env={json.dumps(environment())}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:44s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio    {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"][:20]:
        print(f"  ORACLE FAILED: {problem}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    sys.stdout.flush()
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cyclefactor" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cyclefactor'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so each peak_rss_mib covers only its own children
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    try:
        ok = report(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
