"""Timed closed loop over one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py INPUT_DIR WORK_DIR SECONDS TRACE RESULT_JSON

One client calls `herdsim.cli.main` in-process and issues each command only
after the previous one returned. Iterations repeat until SECONDS would be
exceeded (at least one; with TRACE=1 at least one untraced and one traced,
alternating). Each iteration writes into a fresh output directory, which is
removed once its checks have run. Before and after every call a fixed
reference kernel is timed, so that each call can be expressed in units of
the machine's current speed. The result goes to RESULT_JSON.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402

from herdsim import cli  # noqa: E402

# kernel runs per reference point; one point before and after every call
REFERENCE_SAMPLES = 5


def reference_s() -> float:
    """Median seconds of a fixed mix of small numpy calls, binomial draws and
    float formatting, the kinds of work herdsim spends its time on. It does
    not depend on the program, so it tracks how fast this machine runs now."""
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 150)
    times = []
    for _ in range(REFERENCE_SAMPLES):
        acc = 0.0
        t0 = perf_counter()
        for _ in range(1000):
            acc += float(np.dot(x, x)) + int(rng.binomial(1000, 0.3))
            acc = float(repr(acc)) * 0.5
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_call(main, step) -> tuple[float, str | None]:
    """Run one CLI call and its check; return (seconds, failure or None)."""
    t0 = perf_counter()
    try:
        code = main(step.argv)
    except (Exception, SystemExit) as exc:
        elapsed = perf_counter() - t0
        return elapsed, "raised " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    elapsed = perf_counter() - t0
    if code != 0:
        return elapsed, f"exit code {code}"
    try:
        step.check()
    except Exception as exc:  # any unreadable or wrong output is a failed call
        return elapsed, f"check failed: {type(exc).__name__}: {exc}"
    return elapsed, None


def run(inputs: Path, work: Path, seconds: float, trace: bool, main=None) -> dict:
    """Iterate the workload in `inputs`; `main` replaces `cli.main` if given."""
    main = main or cli.main
    plan = workloads.load_plan(inputs)
    tracer = Tracer() if trace else None
    seen: dict = {}
    iterations = []
    attempted = failed = 0
    failures: list[str] = []
    start = perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        out = work / f"iter_{i}"
        calls = []
        t_iter = perf_counter()
        ref_before = reference_s()
        if traced:
            tracer.iteration = i
            tracer.install()
            call_main = tracer.wrap("cli.main", main)
        else:
            call_main = main
        try:
            for step in workloads.steps(plan, inputs, out, seen):
                elapsed, failure = run_call(call_main, step)
                ref_after = reference_s()
                attempted += 1
                if failure is not None:
                    failed += 1
                    failures.append(f"{' '.join(step.argv[:2])}: {failure}")
                calls.append({"kind": step.kind, "label": step.label,
                              "days": step.days, "s": elapsed,
                              "ref_s": (ref_before + ref_after) / 2.0})
                ref_before = ref_after
        finally:
            if traced:
                tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        iterations.append({"traced": traced, "calls": calls})
        i += 1
        elapsed = perf_counter() - start
        last = perf_counter() - t_iter
        enough = not trace or i >= 2
        if enough and elapsed + last > seconds:
            break

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "iterations": iterations,
        # worker peak plus the largest pool child's peak (ru_maxrss is KiB)
        "peak_rss_mb": (usage + children) / 1024.0,
    }
    if trace:
        traced_ids = [k for k, it in enumerate(iterations) if it["traced"]]
        layers = per_layer(tracer, traced_ids)
        plain = [it for it in iterations if not it["traced"]]
        traced_runs = [it for it in iterations if it["traced"]]
        untraced_wall = statistics.median(wall_s(it) for it in plain)
        traced_wall = statistics.median(wall_s(it) for it in traced_runs)
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        if plan["workload"] == "ensemble":
            layers["cli.ensemble.pool_overhead_s"] = statistics.median(
                call_s(it, "jobs2") - call_s(it, "jobs1") / 2.0 for it in plain)
        result["per_layer"] = layers
        result["spans"] = len(tracer.spans)
        tracer.write_spans(work / "spans.csv")
    return result


def wall_s(iteration: dict) -> float:
    return sum(c["s"] for c in iteration["calls"])


def call_s(iteration: dict, label: str) -> float:
    return sum(c["s"] for c in iteration["calls"] if c["label"] == label)


if __name__ == "__main__":
    inputs, work, seconds, trace, result_path = sys.argv[1:6]
    outcome = run(Path(inputs), Path(work), float(seconds), trace == "1")
    Path(result_path).write_text(json.dumps(outcome))
