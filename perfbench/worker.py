"""One workload in one process: set up, time passes, print one JSON line.

Started by run.py, never by hand.  The set-up (interpreter start, package
import, input generation) ends at the monotonic time printed as "ready";
run.py subtracts the time it spawned this process.  A pass solves the
whole fixed input list once; passes repeat while the next one is expected
to end within --seconds.
With --trace 1 a warm-up pass is followed by traced and untraced passes
in turn, so the tracing overhead is measured in the same process.  An
alarm at --deadline ends the run: the input it interrupts and those not
reached count as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import packetgroup  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DIGEST_SEED = 0


class Deadline(BaseException):
    """Raised by the alarm; a BaseException so no handler in the package eats it."""


def _on_alarm(signum, frame):
    raise Deadline()


def digest(summary) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def input_class(kind: str, payload) -> str:
    """Size class of an input; `op_s.max` takes the slowest class median."""
    if kind in ("datum", "ladder"):
        return f"{kind}.r{payload['rank']}"
    if kind == "group":
        return f"{payload['family']}{payload['rank']}"
    if kind == "oracle":
        return f"{payload['name']}@{payload['level']}"
    return kind


def run_pass(inputs, tracer=None):
    """Solve every input once.  Returns (wall, times, digests, errors, done)."""
    times = [None] * len(inputs)
    digests = [None] * len(inputs)
    errors: list[tuple[int, str]] = []
    start = time.perf_counter()
    done = 0
    try:
        for i, (kind, payload) in enumerate(inputs):
            solver = workloads.SOLVERS[kind]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    summary = solver(payload)
                else:
                    summary = tracer.run_input(i, solver, payload)
            except Exception as ex:  # a failed input is counted, not fatal
                errors.append((i, f"{type(ex).__name__}: {ex}"[:300]))
            else:
                digests[i] = digest(summary)
            times[i] = time.perf_counter() - t0
            done += 1
    except Deadline:
        errors.append((done, "deadline reached"))
    return time.perf_counter() - start, times, digests, errors, done


def _quantile(sorted_values, p: float):
    """Nearest-rank quantile."""
    k = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[k - 1]


def timing_metrics(inputs, pass_times) -> dict:
    """End-to-end metrics except set-up, from complete untraced passes.

    Each input's time is its fastest over the run's passes; `wall_s` is
    their sum.  On a shared 2-vCPU VM the CPU speed changed by up to 2x for
    minutes at a time (the same oracle_check pass took 1.2 s and 2.4 s
    within five minutes), and interference only ever adds time: a short
    input's fastest time moved half as much from run to run as its median.
    """
    per_input = [min(ts) for ts in zip(*pass_times)]
    ordered = sorted(per_input)
    classes: dict[str, list[float]] = {}
    for (kind, payload), t in zip(inputs, per_input):
        classes.setdefault(input_class(kind, payload), []).append(t)
    slowest = max(classes, key=lambda c: statistics.median(classes[c]))
    return {
        "wall_s": sum(per_input),
        "op_ms.p50": 1e3 * statistics.median(ordered),
        "op_ms.p95": 1e3 * _quantile(ordered, 0.95),
        "op_s.max": statistics.median(classes[slowest]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "_samples": len(ordered),
        "_beyond_p95": len(ordered) - math.ceil(0.95 * len(ordered)),
        "_slowest_class": slowest,
        "_passes": len(pass_times),
    }


def layer_metrics(traced: list[dict], untraced_walls, traced_walls) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass values."""
    def med(key: str, field: str):
        return statistics.median(p[field].get(key, 0) for p in traced)

    def layer_sum(layer: str, field: str):
        return statistics.median(
            sum(v for k, v in p[field].items() if k.startswith(layer + "."))
            for p in traced)

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = layer_sum(layer, "self_s")
        out[f"{layer}.calls"] = layer_sum(layer, "outer_calls")
    for name in ("datum.validate", "residue.invariant_points", "residue.iota_image",
                 "residue.packet_group_level", "linalg.hnf", "linalg.smith",
                 "linalg.solve_columns", "linalg.restrict_endomorphism",
                 "linalg.quotient_invariants", "cohomology.counting_checks",
                 "cohomology.tame_h", "cohomology.residue_sharp_sequence",
                 "cohomology.image_of_connecting", "symbols.split_center_image",
                 "oracle.brute_invariant_points", "oracle.brute_quotient",
                 "oracle.subgroup_from_generators"):
        out[f"{name}.self_s"] = med(name, "self_s")
    for name in ("linalg.hnf", "linalg.smith", "oracle.brute_invariant_points"):
        out[f"{name}.calls"] = med(name, "outer_calls")
    out["residue.levels_visited"] = med("residue.packet_group_level", "calls")
    data = [p["calls"].get("datum.validate", 0) for p in traced]
    out["sharp.calls_per_datum"] = statistics.median(
        p["calls"].get("sharp.y_sharp", 0) / n if n else 0
        for p, n in zip(traced, data))
    for key in ("linalg.matmul.calls", "oracle.enumerated_elements"):
        out[key] = med(key, "counts")
    for key in ("datum.group_order.max", "residue.modulus_bits.max",
                "linalg.hnf.in_bits.max", "linalg.smith.transform_bits.max"):
        out[key] = max(p["maxima"].get(key, 0) for p in traced)
    out["bench.self_s"] = med(tracing.ROOT_SPAN, "self_s")
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.traced_wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out


def recorded_digests(workload: str, seed: int):
    if seed != DIGEST_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=150)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="solve one pass and print its output digests")
    args = ap.parse_args()

    if not Path(packetgroup.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"packetgroup imported from {packetgroup.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, ROOT)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, args.deadline)
    if args.record:
        _, _, digests, errors, _ = run_pass(inputs)
        signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps({"digests": digests, "errors": errors}))
        return 0 if not errors else 1

    tracer = tracing.Tracer() if args.trace else None
    expected = recorded_digests(args.workload, args.seed)
    if expected is not None and len(expected) != len(inputs):
        expected = ["input list changed"] * len(inputs)

    spans_out = Path(args.spans_out) if args.spans_out else None
    attempted = failed = 0
    errors: list[str] = []
    reference = None
    walls = {False: [], True: []}
    times_untraced = []
    traced_passes = []
    start = time.perf_counter()
    warm = tracer is not None  # the traced run's first pass is checked, not timed
    while True:
        traced = tracer is not None and not warm and len(walls[False]) >= len(walls[True])
        if traced:
            tracer.reset_pass()
            tracer.keep_spans = spans_out is not None
            tracer.install()
        try:
            wall, times, digests, errs, done = run_pass(inputs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        complete = done == len(inputs)
        attempted += len(inputs)
        bad = {i for i, _ in errs} | set(range(done, len(inputs)))
        if reference is None:
            reference = digests
        for i in range(done):
            if i in bad:
                continue
            if digests[i] != reference[i]:
                bad.add(i)
                errs.append((i, "output differs from the first pass"))
            elif expected is not None and digests[i] != expected[i]:
                bad.add(i)
                errs.append((i, "output differs from the recorded digest"))
        failed += len(bad)
        errors.extend(f"input {i} ({inputs[i][0]}): {e}" for i, e in errs)
        if not complete:
            break
        if warm:
            warm = False
            continue
        walls[traced].append(wall)
        if traced:
            if spans_out is not None:
                write_spans(spans_out, tracer.spans, inputs)
                tracer.spans.clear()
                spans_out = None
            traced_passes.append({"self_s": dict(tracer.self_s),
                                  "calls": dict(tracer.calls),
                                  "outer_calls": dict(tracer.outer_calls),
                                  "counts": dict(tracer.counts),
                                  "maxima": dict(tracer.maxima)})
        elif tracer is None:
            times_untraced.append(times)
        # stop when another pass as long as this one would end past --seconds
        elapsed = time.perf_counter() - start
        if elapsed + wall > args.seconds and (tracer is None or walls[False]):
            break
    signal.setitimer(signal.ITIMER_REAL, 0)

    result = {"ready": ready, "attempted": attempted, "failed": failed,
              "errors": errors[:20], "debug": __debug__,
              "optimize": sys.flags.optimize}
    if times_untraced:
        result["metrics"] = timing_metrics(inputs, times_untraced)
    if traced_passes:
        result["metrics"] = layer_metrics(traced_passes, walls[False], walls[True])
    print(json.dumps(result))
    return 0


def write_spans(path: Path, spans, inputs) -> None:
    """Spans of one traced pass, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for span_id, parent_id, name, start, end, input_id in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                 "start": start, "end": end, "input": input_id,
                                 "kind": inputs[input_id][0]}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
