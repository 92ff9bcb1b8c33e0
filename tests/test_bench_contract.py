"""What the benchmark under perfbench/ needs from herdsim.

The benchmark's tracer patches herdsim names by module and attribute, its
input generator calls the library in-process, and its steps are command
lines. A simplification that removes or renames one of them breaks the
benchmark; these tests catch that in the suite. They only read perfbench/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from herdsim.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, without putting perfbench/ on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_tracer_finds_and_restores_every_patched_name():
    tracer = tracing.Tracer()
    try:
        tracer.install()  # AttributeError or KeyError for a name that is gone
        patched = list(tracer._saved)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        now = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert now is original, attr


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_inputs_generate_and_steps_parse(tmp_path, workload):
    # calibrate-panel's generator runs the library's estimators as its oracle
    plan = workloads.generate(workload, tmp_path / "inputs", seed=3, scale="mini")
    steps = workloads.steps(plan, tmp_path / "inputs", tmp_path / "out", {})
    assert steps
    parser = build_parser()
    for step in steps:
        parser.parse_args(step.argv)  # SystemExit for an option that is gone
