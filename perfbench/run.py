"""herdsim benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a herdsim checkout):

    python3 perfbench/run.py --workload single-stock --seed 0 --seconds 24 --trace 0

Generates the workload's inputs from --seed, measures set-up time in fresh
interpreters, then runs a closed loop (one client, in-process
`herdsim.cli.main`) for --seconds in a fresh worker process and checks every
output. Prints a readable report and, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_ROOT = ROOT / ".perfbench_out"

# fresh interpreters per run for setup_s; the median is reported
SETUP_RUNS = 7
# every run, set-up and loop included, must end within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "wall_s": "s", "reference_s": "s",
    "sim_days_per_s": "day/s", "analyze_s": "s",
    "calibrate_s": "s", "parallel_speedup": "ratio", "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
# the subset that is defined, and never 0, on every workload
BOUNDED = ("setup_s", "wall_ref", "peak_rss_mb")


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def machine_block() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    llc_level, llc = 0, "unknown"
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = int(_read(index / "level") or 0)
        if level > llc_level and _read(index / "type") != "Instruction":
            llc_level, llc = level, _read(index / "size")
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "llc": f"L{llc_level} {_size_bytes(llc) / 2**20:g} MiB",
            "llc_bytes": _size_bytes(llc), "commit": _commit()}


def _size_bytes(text: str) -> int:
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in scale and text[:-1].isdigit():
        return int(text[:-1]) * scale[text[-1]]
    return int(text) if text.isdigit() else 0


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or head[5:]
    return head or "unknown (not a git checkout)"


def _median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict, setup: list[float]) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count) from the worker's untraced iterations."""
    its = [it for it in result["iterations"] if not it["traced"]]

    def per_iteration(fn) -> tuple[float, int]:
        values = [v for v in (fn(it["calls"]) for it in its) if v is not None]
        return _median_of(values), len(values)

    def total(kind):
        return lambda calls: (sum(c["s"] for c in calls if c["kind"] == kind)
                              if any(c["kind"] == kind for c in calls) else None)

    def days_per_s(calls):
        sims = [c for c in calls if c["kind"] == "simulate"]
        return sum(c["days"] for c in sims) / sum(c["s"] for c in sims) if sims else None

    def speedup(calls):
        by = {c["label"]: c["s"] for c in calls}
        return by["jobs1"] / by["jobs2"] if "jobs1" in by and "jobs2" in by else None

    attempted = result["attempted"] + result["probe_attempted"]
    failed = result["failed"] + result["probe_failed"]
    references = [c["ref_s"] for it in its for c in it["calls"]]
    return {
        "setup_s": (_median_of(setup), len(setup)),
        "wall_ref": per_iteration(lambda calls: sum(c["s"] / c["ref_s"] for c in calls)),
        "wall_s": per_iteration(lambda calls: sum(c["s"] for c in calls)),
        "reference_s": (_median_of(references), len(references)),
        "sim_days_per_s": per_iteration(days_per_s),
        "analyze_s": per_iteration(total("analyze")),
        "calibrate_s": per_iteration(total("calibrate")),
        "parallel_speedup": per_iteration(speedup),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "failed_frac": (failed / attempted, attempted),
    }


def _run(argv: list[str], deadline: float) -> int:
    """Exit code of a Python helper, killed if still running at the deadline.

    A blocking wait() returns as soon as the helper exits; subprocess.run's
    timeout would poll every 50 ms and round the set-up times up to it.
    """
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.DEVNULL)
    timer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def measure_setup(mini: Path, work: Path, deadline: float) -> tuple[list[float], int, int]:
    """Wall times of SETUP_RUNS fresh interpreters, and (attempted, failed)."""
    times, failed = [], 0
    for k in range(SETUP_RUNS):
        out = work / f"probe_{k}"
        t0 = perf_counter()
        code = _run([str(HERE / "probe.py"), str(mini), str(out)], deadline)
        times.append(perf_counter() - t0)
        failed += code != 0
        shutil.rmtree(out, ignore_errors=True)
    return times, SETUP_RUNS, failed


def report(args, machine: dict, plan: dict, result: dict, metrics: dict) -> None:
    print(f"herdsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()
                                 if k != "llc_bytes"))
    for name, size in plan.get("input_bytes", {}).items():
        print(f"input {name}: {size} bytes of CSV")
    for name, size in plan.get("memory_bytes", {}).items():
        fits = (f"fits in the {machine['llc']} last-level cache, so this is "
                f"not a memory-bandwidth test"
                if size < machine["llc_bytes"] else "exceeds the last-level cache")
        print(f"in memory {name}: {size} bytes ({fits})")
    its = result["iterations"]
    print(f"closed loop, 1 client: {len(its)} iterations, "
          f"{sum(len(it['calls']) for it in its)} cli.main calls")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit, n, note) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:8s} {note} (n={n})")


def measure(args, work: Path) -> int:
    deadline = perf_counter() + DEADLINE_S
    inputs, mini = work / "inputs", work / "mini"
    plan = workloads.generate(args.workload, inputs, args.seed, args.scale)
    workloads.generate(args.workload, mini, args.seed, "mini")
    machine = machine_block()
    setup, probe_attempted, probe_failed = measure_setup(mini, work, deadline)

    result_path = work / "result.json"
    code = _run([str(HERE / "worker.py"), str(inputs), str(work / "run"),
                 str(args.seconds), str(args.trace), str(result_path)], deadline)
    if code != 0:
        print(f"error: benchmark worker exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    result.update(probe_attempted=probe_attempted, probe_failed=probe_failed)

    metrics: dict[str, tuple[float, str, int, str]] = {}
    if args.trace:
        for name, unit in tracing.PER_LAYER_UNITS.items():
            metrics[name] = (result["per_layer"][name], unit,
                             sum(it["traced"] for it in result["iterations"]),
                             "median of traced iterations")
        SPANS_ROOT.mkdir(exist_ok=True)
        spans = SPANS_ROOT / f"{args.workload}-seed{args.seed}-spans.csv"
        shutil.move(str(work / "run" / "spans.csv"), spans)
        print(f"{result['spans']} spans written to {spans.relative_to(ROOT)}")
        for blind_spot in tracing.BLIND_SPOTS:
            print(f"not traced: {blind_spot}")
    else:
        notes = {"setup_s": "median of fresh interpreters",
                 "wall_ref": "median of iterations, each call / its reference_s",
                 "reference_s": "median around calls of the fixed reference kernel",
                 "peak_rss_mb": "worker peak + largest pool child peak",
                 "failed_frac": "failed over attempted calls"}
        for name, (value, n) in end_to_end(result, setup).items():
            note = notes.get(name, "median of iterations")
            if n == 0:
                note = "not exercised by this workload"
            metrics[name] = (value, END_TO_END_UNITS[name], n, note)
    report(args, machine, plan, result, metrics)

    attempted = result["attempted"] + probe_attempted
    failed = result["failed"] + probe_failed
    keep = tracing.PER_LAYER_UNITS if args.trace else BOUNDED
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keep},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "mini"], default="full",
                        help="input size; mini is for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "herdsim" / "cli.py").is_file():
        print(f"error: no herdsim sources under {ROOT / 'src'}; "
              "run from the root of a herdsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
