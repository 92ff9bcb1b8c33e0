"""Report the statements of src/herdsim that no benchmark workload or demo runs.

    python tools/unreached.py

Runs every step of the four benchmark workloads at their mini scale, each
on inputs made by `perfbench/workloads.py`'s `generate` and through the
command lines its `steps` lists, then the four scripts under demos/, all in
this process and in a temporary directory. Line events are traced only in
frames of src/herdsim, and only while herdsim is imported and while a step
or a demo runs, not while the inputs are generated. Prints each statement
none of these runs executes as `file:line: text`, then their count.
Definitions, imports and docstrings are not listed, and code that runs
only in the worker processes of a pool (`--jobs 2`) is not seen. Exits 1
if a step fails, 0 otherwise. Stdlib only, apart from numpy and the
tracer and statement list of tools/unexecuted.py (which imports pytest).
"""

import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile

from unexecuted import ROOT, SRC, hits, scope, statements

WORKLOADS = ("single-stock", "multi-level", "calibrate-panel", "ensemble")
SEED = 1


@contextlib.contextmanager
def traced():
    """Trace src/herdsim with stdout silenced."""
    sys.settrace(scope)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            yield
    finally:
        sys.settrace(None)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    with traced():  # the module-level statements run on import
        from herdsim import cli
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for workload in WORKLOADS:
            inputs, out = tmp / workload / "inputs", tmp / workload / "out"
            plan = workloads.generate(workload, inputs, SEED, "mini")
            for step in workloads.steps(plan, inputs, out, {}):
                with traced():
                    status = cli.main(step.argv)
                if status != 0:
                    print(f"{workload}: herdsim {' '.join(step.argv)} exited {status}")
                    return 1
                step.check()
        for demo in sorted((ROOT / "demos").glob("*.py")):
            cwd = tmp / demo.stem
            cwd.mkdir()
            os.chdir(cwd)  # the demos write demo_out/ under the working directory
            with traced():
                runpy.run_path(str(demo), run_name="__main__")
        os.chdir(ROOT)
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        for first, span in sorted(statements(path)):
            if not any((str(path), n) in hits for n in span):
                missed.append(f"{path.relative_to(ROOT)}:{first}: "
                              f"{lines[first - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{len(missed)} statements reached by no workload or demo")
    return 0


if __name__ == "__main__":
    sys.exit(main())
