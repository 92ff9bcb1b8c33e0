"""Self-test of the benchmark at tiny ("mini") input sizes.

Usage, from the root of a herdsim checkout:

    python3 perfbench/selftest.py

Checks that
  * every workload prints, with --trace 0 and 1, a last line with exactly
    the keys correct/attempted/failed/metrics, and exactly the metrics and
    units BENCHMARK.json names; the readable report lists every end-to-end
    metric with its unit and sample count;
  * a truncated returns.csv makes failed_frac rise above 0;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from herdsim import cli  # noqa: E402

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("PASS " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_outputs(spec: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--scale", "mini"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.splitlines()
            tag = f"{workload} trace={trace}"
            expect(proc.returncode == 0 and bool(lines), f"{tag}: exits 0")
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: last line has exactly the contract keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: correct, nothing failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == wanted[trace],
                   f"{tag}: metrics and units match BENCHMARK.json")
            if trace == 0:
                for name, unit in run.END_TO_END_UNITS.items():
                    expect(any(line.startswith(name + " ") and f" {unit} " in line
                               and "(n=" in line for line in lines),
                           f"{tag}: report prints {name} with unit {unit}")


def check_corruption(work: Path) -> None:
    inputs = work / "inputs"
    workloads.generate("single-stock", inputs, 0, "mini")

    def truncating_main(argv):
        code = cli.main(argv)
        if argv[0] == "simulate":
            path = Path(argv[argv.index("--out") + 1]) / "returns.csv"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[: len(lines) // 2]))
        return code

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        result = worker.run(inputs, work / "run", 0.1, False, main=truncating_main)
    result.update(probe_attempted=0, probe_failed=0)
    frac = run.end_to_end(result, [1.0])["failed_frac"][0]
    expect(frac > 0, f"truncated returns.csv gives failed_frac {frac:.3f} > 0")


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "single-stock",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without program sources: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = run.WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_outputs(spec)
        check_corruption(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
