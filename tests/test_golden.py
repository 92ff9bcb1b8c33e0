"""Golden sha256 digests of returns.csv for one small config per model.

Each digest pins the model's random stream end to end through `cli.main`:
a refactor that keeps the stream keeps the digest.  A change that alters
the stream on purpose (a new sampler with the same law) updates the
digest here and says so in CHANGES.md.  The digests hold for the numpy
release line the suite runs on (2.x), whose Generator streams they encode.
"""

import hashlib
import json

import pytest

from herdsim.cli import main

CONFIGS = {
    "a": {"N": 1000, "M": 50, "t_max": 600, "warmup": 50, "seed": 11,
          "alpha": 1.2, "delta_R": 2},
    "b": {"N": 1000, "M": 50, "t_max": 600, "warmup": 50, "seed": 12, "c": 0.5},
    "c": {"N": 2000, "M": 50, "t_max": 300, "warmup": 50, "seed": 13,
          "n": 10, "n_sec": 2, "H_M": 0.363, "H_j": [0.491, 0.546],
          "P_group": 0.363},
    "d": {"N": 1000, "M": 50, "t_max": 600, "warmup": 50, "seed": 14,
          "a": 0.2, "tau": 10},
}

DIGESTS = {
    "a": "84ef7962576385f736c9e324e68fdf6b55aa01fb01eb8930e7fb53f9844e3e92",
    "b": "bbe756bd62e574899da652b70c1d5838be880e7d045372d26eb19cd5d0d8a3c6",
    # count-level day sampler with no draws below the M-level on days whose
    # M-groups all decide alike (same law as the per-group loop, new stream)
    "c": "e480450806578766e642b1d73e4f502264f85d2309ad669929af4af86a952c03",
    # feedback-free draws made before the day loop (same law as the
    # day-by-day loop, new stream)
    "d": "b5201ab0bc3d229ec23f76442aa3e5257031b74c2369a2d9f64b4ea2e894bd0c",
}


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_returns_digest(tmp_path, model):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[model]))
    out = tmp_path / "run"
    assert main(["simulate", model, "--config", str(config), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "returns.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[model]
