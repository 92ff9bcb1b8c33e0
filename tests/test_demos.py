"""Every script under demos/ runs to completion.

Each demo runs in its own interpreter inside a fresh working directory
(the demos write demo_out/ there), with a numpy divide or cast warning, a
deprecation or a future warning turned into an error, as in the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import herdsim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# the directory herdsim is imported from, for the demo's interpreter
SRC = str(Path(herdsim.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-W", "error::DeprecationWarning", "-W", "error::FutureWarning", demo],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
