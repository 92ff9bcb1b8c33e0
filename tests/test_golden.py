"""Golden sha256 digests of returns.csv and diagnostics.csv for one small
config per model, of model c's panel.csv and sectors.csv, and of
report.json and report.txt for each calibration.

Each returns digest pins the model's random stream end to end through
`cli.main`: a refactor that keeps the stream keeps the digest.  Each
diagnostics digest pins the per-day traces the same way, so a rewrite of a
day loop that keeps the stream must also keep every trace value.  A change
that alters the stream on purpose (a new sampler with the same law) updates
the digests here and says so in CHANGES.md.  The report digests pin each
calibration's numbers and formatting on the seeded input files of
conftest.py, so a refactor of an estimator or a loader shows whether it
kept every byte.  The digests hold for the numpy
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
    # M-groups all decide alike, and sector and stock counts drawn one at a
    # time only where random (same law as the per-group loop, new stream);
    # returns.csv holds day,R only, the per-stock returns are in panel.csv
    "c": "0f0aa3ef2e3336feeeab45738409036bf4ae9c3120e71cb5b9d32d87f312544d",
    # feedback-free draws made before the day loop (same law as the
    # day-by-day loop, new stream)
    "d": "b5201ab0bc3d229ec23f76442aa3e5257031b74c2369a2d9f64b4ea2e894bd0c",
}


DIAGNOSTICS_DIGESTS = {
    "a": "8de80024aec503e3110902f80437d0f05b0baa4df5d0e34785946bfd857bdef8",
    "b": "3592e021b6a70f3f9e794813784c954ae91a05f9207169cda801fdd5eb561df2",
    "c": "fcdfedc3c0a7783c9b647f2d64860d7f69a2bfa58e0f22dc593baa8f8431840b",
    "d": "e822ac419c9969af938907fbf20248bca1496fd5f55600e15ad6a179c930c4ec",
}


# model c's per-stock returns and sector map, as `analyze spectrum` and
# `calibrate comovement` read them
PANEL_DIGESTS = {
    "panel.csv": "dd7cfe746bd31afb5dca84091eeda1edc8995361942a8f522f3b7cb28b5d203b",
    "sectors.csv": "466cc90ff6d3c2f8dd30954c678c217f4f09d12be9045a09094fdec071a13aed",
}


def _simulate(tmp_path, model):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[model]))
    out = tmp_path / "run"
    assert main(["simulate", model, "--config", str(config), "--out", str(out)]) == 0
    return out


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_returns_digest(tmp_path, model):
    assert _sha256(_simulate(tmp_path, model) / "returns.csv") == DIGESTS[model]


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_diagnostics_digest(tmp_path, model):
    out = _simulate(tmp_path, model)
    assert _sha256(out / "diagnostics.csv") == DIAGNOSTICS_DIGESTS[model]


def test_panel_digests(tmp_path):
    out = _simulate(tmp_path, "c")
    assert {name: _sha256(out / name) for name in PANEL_DIGESTS} == PANEL_DIGESTS


# (report.json, report.txt) of each calibration on the conftest inputs
REPORT_DIGESTS = {
    "asymmetry": (
        "12cae380560828d81c4a380a1a5230d197250627e108f5c345ec44f94f347bdd",
        "7a599c314817de8e3023223869ec89ae3ff92d95293f172a6122206dfd46ef3e",
    ),
    "comovement": (
        "d5c156f8318f56412097c6a09e836003f1ee4edbf87ddfc4bea7c0885db7c0be",
        "b6e86092aed90d29648a85c5b7510469da1a9a8ac081a4487cd64ea1f60b472d",
    ),
    "infoforce": (
        "bdec3f5bf593b08674b45b2ab74d2c72eb0e0328fe94de9772083ec21a275eac",
        "795e789f98999d7937c407006d0f05aa2fa328022475c3d87d461f2579c3b026",
    ),
    "infoforce-tau": (
        "edea58ec63406ff7f60f184204b2407262894feeb956f8bbb91c10d1431597e0",
        "025fdc24d50a35f86f27ae5e3ce7d5e89351e5e76d63e05f4ae04691c09a5f3b",
    ),
    # six tickers, one of constant attention, on an index lacking clock weeks
    "infoforce-gaps": (
        "383775481a350533ac57337cf3cc1fbdea9a1fdf35d9a1e39e3396f67840e6f2",
        "dc6c4ca0f00a922a78880decad30a50d09b38e382058606a4cb263bf34147b80",
    ),
}


def _calibrate_argv(request, name):
    if name == "asymmetry":
        return ["asymmetry", "--index", request.getfixturevalue("index_csv"),
                "--horizon", 60]
    if name == "comovement":
        panel, sectors, *_ = request.getfixturevalue("panel_files")
        return ["comovement", "--panel", panel, "--sectors", sectors]
    if name == "infoforce-gaps":
        search, volumes, index = request.getfixturevalue("info_gap_files")
    else:
        search, volumes, index = request.getfixturevalue("info_files")
    # "infoforce" estimates tau from the attention curve
    tau = [] if name == "infoforce" else ["--tau", 12]
    return ["infoforce", "--search", search, "--volumes", volumes,
            "--index", index, *tau]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digests(tmp_path, request, name):
    out = tmp_path / "cal"
    argv = ["calibrate", *_calibrate_argv(request, name), "--out", out]
    assert main([str(a) for a in argv]) == 0
    assert (_sha256(out / "report.json"), _sha256(out / "report.txt")) == (
        REPORT_DIGESTS[name])


def test_gap_report_has_skipped_and_unlabelled_windows(tmp_path, request):
    # the constant attention of FLAT skips all its windows, and the clock
    # weeks the index lacks leave the windows over them unlabelled
    out = tmp_path / "cal"
    argv = ["calibrate", *_calibrate_argv(request, "infoforce-gaps"), "--out", out]
    assert main([str(a) for a in argv]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["windows_skipped"] > 0
    assert report["windows_unlabelled"] > 0
