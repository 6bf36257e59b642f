#!/usr/bin/env python3
"""Benchmark of the packetgroup calculator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Each workload runs in a child process (worker.py) under a deadline.  With
--trace 0 the run prints every end-to-end metric; with --trace 1 it runs
the same inputs with timing wrappers and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every input was solved and checked.

    python3 perfbench/run.py --steadiness 10 [--workload NAME] --seconds S

repeats runs with seeds N, N+1, ... and prints each end-to-end metric's
median, quartiles and spread (IQR / median).

    python3 perfbench/run.py --record-digests

solves one pass of every workload at seed 0 and writes the output digests
that later runs at seed 0 are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("random_mix", "rank_ladder", "group_ladder", "oracle_check")

# Set-up is measured in this many fresh interpreters (plus the measuring
# one) and reported as their median.
SETUP_SAMPLES = 4
# Every run ends within this many seconds of its start.
RUN_BUDGET_S = 165

UNITS = {"wall_s": "s", "op_ms.p50": "ms", "op_ms.p95": "ms", "op_s.max": "s",
         "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    """A child process failed to produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)  # the debug self-checks run, as for users
    env.pop("PYTHONPATH", None)      # worker.py puts the checkout's src first
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same set-up cost every run; no writes to src/
    return env


def _spawn(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py; return (monotonic spawn time, its JSON result)."""
    cmd = [sys.executable, str(WORKER)] + argv
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {timeout:.0f} s: {argv}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with {proc.returncode}: {argv}")
    return t0, json.loads(lines[-1])


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "seed": seed,
            "commit": _git_commit(),
            "src_sha256": _tree_digest(ROOT / "src")}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run.  Returns the worker result with all metrics."""
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            t0, res = _spawn(base + ["--setup-only"],
                             RUN_BUDGET_S - (time.monotonic() - start))
            setups.append(res["ready"] - t0)
    remaining = RUN_BUDGET_S - (time.monotonic() - start)
    argv = base + ["--seconds", str(seconds), "--trace", str(trace),
                   "--deadline", f"{max(remaining - 10, 1):.1f}"]
    if trace:
        argv += ["--spans-out", str(ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl")]
    t0, res = _spawn(argv, remaining)
    if not trace:
        setups.append(res["ready"] - t0)
        res.setdefault("metrics", {})["setup_s"] = statistics.median(setups)
    if res.get("debug") is not True or res.get("optimize") != 0:
        raise RunError("worker ran with -O; the debug self-checks must run")
    return res


def report(workload: str, res: dict, trace: int) -> dict:
    metrics = res.get("metrics", {})
    out = {}
    for name, value in metrics.items():
        if name.startswith("_"):
            continue
        unit = UNITS.get(name) if not trace else _layer_unit(name)
        out[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} = {value:.6g} {unit}")
    if not trace and metrics:
        print(f"{workload} op_ms.p95 samples = {metrics['_samples']} inputs, "
              f"{metrics['_beyond_p95']} beyond it; passes = {metrics['_passes']}; "
              f"op_s.max class = {metrics['_slowest_class']}")
    print(f"{workload} failed_frac = {res['failed'] / max(res['attempted'], 1):.6g} "
          f"({res['failed']} of {res['attempted']})")
    for err in res.get("errors", []):
        print(f"{workload} error: {err}", file=sys.stderr)
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits.max"):
        return "bits"
    if name.endswith("calls_per_datum"):
        return "1/datum"
    return "count"


def steadiness(names, seed: int, seconds: float, repeats: int) -> int:
    """Repeat runs on successive seeds; print median, quartiles and spread."""
    status = 0
    summary = {}
    for workload in names:
        values: dict[str, list[float]] = {}
        for i in range(repeats):
            res = run_once(workload, seed + i, seconds, 0)
            if res["failed"]:
                status = 1
                print(f"{workload} seed {seed + i}: {res['failed']} failed", file=sys.stderr)
            for name in UNITS:
                values.setdefault(name, []).append(res["metrics"][name])
            print(f"{workload} seed {seed + i}: " + " ".join(
                f"{n}={res['metrics'][n]:.4g}" for n in UNITS), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else float("inf")
            summary[f"{workload}/{name}"] = {"median": med, "q1": q1, "q3": q3,
                                             "spread": spread, "n": len(vals)}
            print(f"{workload} {name}: median {med:.4g} {UNITS[name]}  "
                  f"q1 {q1:.4g}  q3 {q3:.4g}  spread {spread:.3f}  n={len(vals)}",
                  flush=True)
    print(json.dumps(summary, sort_keys=True))
    return status


def record_digests() -> int:
    out = {}
    for workload in WORKLOADS:
        _, res = _spawn(["--workload", workload, "--seed", "0", "--record"], RUN_BUDGET_S)
        out[workload] = res["digests"]
    (HERE / "digests.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "packetgroup" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.steadiness:
        return steadiness([args.workload] if args.workload else WORKLOADS,
                          args.seed, args.seconds, args.steadiness)
    if args.workload is None:
        ap.error("--workload is required")

    try:
        res = run_once(args.workload, args.seed, args.seconds, args.trace)
    except RunError as ex:
        print(f"run failed: {ex}", file=sys.stderr)
        return 1
    env = environment(args.seed)
    env["optimize"], env["smith_self_check"] = res["optimize"], res["debug"]
    print("env " + json.dumps(env, sort_keys=True))
    metrics = report(args.workload, res, args.trace)
    correct = res["failed"] == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
