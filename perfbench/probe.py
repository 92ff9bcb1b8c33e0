"""Set-up probe: what every CLI call pays before it does real work.

Usage: python3 perfbench/probe.py INPUT_DIR OUT_DIR

Runs in a fresh interpreter: imports `herdsim.cli` and runs each command
of a workload once on its minimal inputs (the "mini" scale). Exits 0 when
every call returned 0, else 1. Outputs are not checked here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

from herdsim import cli  # noqa: E402

if __name__ == "__main__":
    inputs, out = Path(sys.argv[1]), Path(sys.argv[2])
    plan = workloads.load_plan(inputs)
    codes = [cli.main(step.argv) for step in workloads.steps(plan, inputs, out, {})]
    sys.exit(0 if all(code == 0 for code in codes) else 1)
