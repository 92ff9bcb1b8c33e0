"""Run the benchmark of two herdsim checkouts in alternating pairs and record
every run, the per-pair ratios and the spread, in one JSON file.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workloads multi-level,single-stock --pairs 5 --seed 131 \\
        --out BENCH_<label>.json [--trace 1]

For each workload and pair i (seed S + i on both sides), runs each
checkout's own `perfbench/run.py --trace T` (T from `--trace`, default 0:
untraced, as speed claims are read) for the `run_seconds` of the parent's
BENCHMARK.json; the parent runs first in even pairs and the change
first in odd ones. Each run's last stdout line is read as the benchmark's
JSON result. Every run is recorded, a failed or malformed one with its
exit status and the tail of its stderr, and a pair counts for a metric only
when both of its runs report it. Per workload and metric the file holds the
change/parent ratio of every pair, their median, and each side's median and
quartiles, the parent's interquartile distance being the spread a claimed
difference must exceed. The machine block gives the CPU count and the
numpy build (version, BLAS, OPENBLAS_NUM_THREADS) of the interpreter that
runs both sides, so set OPENBLAS_NUM_THREADS before running.

Stdlib only; runs from any working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
# run.py ends each run within 180 s; a run past this is recorded as failed
RUN_TIMEOUT_S = 600
# the numpy block that herdsim writes into every manifest
NUMPY_BUILD = ("import json; from herdsim.cli import _numpy_build; "
               "print(json.dumps(_numpy_build()))")


def _commit(checkout: Path):
    """The checkout's git HEAD, or None for a copy outside git."""
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except FileNotFoundError:  # no git installed
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_block(checkout: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", NUMPY_BUILD],
                          capture_output=True, text=True, cwd=checkout,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    try:
        numpy_build = json.loads(done.stdout)
    except ValueError:
        numpy_build = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_build}


def run_once(checkout: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    """One benchmark run; `result` is the parsed JSON last line, or None."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = perf_counter()
    try:
        done = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
        status, stdout, stderr = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        status, stdout, stderr = None, "", f"timed out after {RUN_TIMEOUT_S} s"
    record = {"exit_status": status, "elapsed_s": round(perf_counter() - start, 3),
              "result": None, "error": None}
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        record["error"] = "no JSON result on the last line"
    elif status != 0:
        record["error"] = f"exit status {status}"
    if record["error"] is None:
        record["result"] = result
    else:
        record["stderr_tail"] = stderr.strip().splitlines()[-5:]
    return record


def _value(run: dict, metric: str):
    result = run["result"]
    if result is None:
        return None
    value = result["metrics"].get(metric, {}).get("value")
    return value if isinstance(value, (int, float)) else None


def _spread(values: list) -> dict:
    """Median, quartiles and interquartile distance of a sample."""
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else None,
            "q1": q1, "q3": q3, "iqr": None if q1 is None else q3 - q1}


def summarize(pairs: list) -> dict:
    """Per metric: ratios of the pairs where both runs report it, their
    median, and each side's median and quartiles over those pairs."""
    names = sorted({name for pair in pairs for side in SIDES
                    if pair[side]["result"] is not None
                    for name in pair[side]["result"]["metrics"]})
    summary = {}
    for name in names:
        both = [(_value(p["parent"], name), _value(p["change"], name)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        ratios = [b / a if a else None for a, b in both]
        known = [r for r in ratios if r is not None]
        summary[name] = {
            "pairs": len(both),
            "ratios": ratios,
            "median_ratio": statistics.median(known) if known else None,
            "parent": _spread([a for a, _ in both]),
            "change": _spread([b for _, b in both]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 records the per-layer metrics (default 0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {checkout}")
    seconds = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["run_seconds"]

    report = {
        "machine": machine_block(checkouts["change"]),
        "commits": {side: _commit(path) for side, path in checkouts.items()},
        "run_seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": args.seed + i, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, pair["seed"],
                                      seconds, args.trace)
                print(f"{workload} pair {i} {side}: "
                      f"{pair[side]['error'] or 'ok'}", file=sys.stderr)
            pairs.append(pair)
        report["workloads"][workload] = {"pairs": pairs, "metrics": summarize(pairs)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
