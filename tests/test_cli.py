import csv
import dataclasses
import errno
import hashlib
import json
import math
import multiprocessing
import os
import re
import shlex
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import (weekly_dates, write_csv, write_index_csv, write_info_files,
                      write_panel_files)
from herdsim import calibrate, errors, ingest, simcore, stats
from herdsim.simcore import weighted_returns
from herdsim.cli import main


def run(args):
    return main([str(a) for a in args])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_manifest_lists_its_outputs(out):
    """manifest.json lists every other file under `out`, keyed by its path
    relative to `out`, with its sha256."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {
        path.relative_to(out).as_posix(): digest(path)
        for path in out.rglob("*")
        if path.is_file() and path != out / "manifest.json"
    }


def small_config(tmp_path, **overrides):
    cfg = {"N": 1000, "M": 50, "t_max": 400, "warmup": 50, "seed": 7}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r1"]) == 0
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r2"]) == 0
        assert digest(tmp_path / "r1" / "returns.csv") == digest(
            tmp_path / "r2" / "returns.csv"
        )

    def test_row_count_excludes_warmup(self, tmp_path):
        cfg = small_config(tmp_path, t_max=400, warmup=60)
        assert run(["simulate", "b", "--config", cfg, "--out", tmp_path / "r"]) == 0
        with open(tmp_path / "r" / "returns.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["day", "R"]
        assert len(rows) - 1 == 400 - 60

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = small_config(tmp_path)
        run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r1"])
        run(["simulate", "a", "--config", cfg, "--seed", 8, "--out", tmp_path / "r2"])
        assert digest(tmp_path / "r1" / "returns.csv") != digest(
            tmp_path / "r2" / "returns.csv"
        )
        manifest = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert manifest["seed"] == 8

    def test_invalid_sector_config_exits_2(self, tmp_path, capsys):
        cfg = small_config(
            tmp_path, n=10, n_sec=2, H_M=0.5, H_j=[0.6, 0.4], P_group=0.3
        )
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "sector 2" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run(["simulate", "a", "--config", missing, "--out", tmp_path / "r"]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_top_level_json_list_exits_2(self, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text(json.dumps([{"N": 1000}]))
        assert run(["simulate", "a", "--config", listed, "--out", tmp_path / "r"]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert run(["simulate", "a", "--config", small_config(tmp_path),
                    "--calibration", listed, "--out", tmp_path / "r"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, seed=-1)
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_string_agent_count_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, N="100")
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "N must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "h_j,message",
        [
            (3, "H_j must be a list of numbers"),
            ([0.4, "x"], "H_j entries must be finite numbers"),
            ([0.4, float("nan")], "H_j entries must be finite numbers"),
        ],
    )
    def test_malformed_sector_degrees_exit_2(self, tmp_path, capsys, h_j, message):
        cfg = small_config(tmp_path, n=10, n_sec=2, H_M=0.3, H_j=h_j, P_group=0.3)
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value,message",
        [(True, "N must be a number"), (100.5, "N must be an integer")],
    )
    def test_non_integer_agent_count_exits_2(self, tmp_path, capsys, value, message):
        cfg = small_config(tmp_path, N=value)
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model,overrides,field",
        [
            ("a", {"N": 1e29}, "N"),
            ("c", {"N": 1e29, "n": 10, "n_sec": 2, "H_M": 0.3, "H_j": [0.4, 0.5],
                   "P_group": 0.3}, "N"),
            ("a", {"t_max": 1e20}, "t_max"),
            ("a", {"t_max": 3e9}, "t_max"),
            ("d", {"tau": 2**31}, "tau"),
            ("b", {"delta_R": -(2**31)}, "delta_R"),
        ],
    )
    def test_oversized_integer_fields_exit_2(
        self, tmp_path, capsys, model, overrides, field
    ):
        cfg = small_config(tmp_path, **overrides)
        assert run(["simulate", model, "--config", cfg, "--out", tmp_path / "r"]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be at most 2147483647 in magnitude" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"k": 10**400}, "k must be finite"),
            ({"n": 10, "n_sec": 2, "H_M": 0.3, "H_j": [0.4, 10**400],
              "P_group": 0.3}, "H_j entries must be finite numbers"),
        ],
    )
    def test_integers_beyond_float_range_exit_2(
        self, tmp_path, capsys, overrides, message
    ):
        cfg = small_config(tmp_path, **overrides)
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["a", "b"])
    def test_trade_probability_above_one_exits_2(self, tmp_path, capsys, model):
        # 2p * alpha = 1.2: the bull trade probability would exceed 1
        cfg = small_config(tmp_path, N=100, t_max=120, p=0.4, alpha=1.5)
        assert run(["simulate", model, "--config", cfg, "--out", tmp_path / "r"]) == 2
        err = capsys.readouterr().err
        assert "2p*max(alpha, beta) must be at most 1" in err
        assert "Traceback" not in err

    def test_trade_probability_of_one_runs(self, tmp_path):
        cfg = small_config(tmp_path, N=100, t_max=120, p=0.4, alpha=1.25)
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r"]) == 0

    @pytest.mark.parametrize("overrides, message", [
        ({"n_sec": 3}, "n_sec=3 must divide the stock count n=10"),
        ({"H_M": None}, "model c requires H_M and H_j"),
        ({"H_j": None}, "model c requires H_M and H_j"),
        ({"H_j": [0.4, 0.5, 0.6]}, "H_j has 3 entries for n_sec=2"),
    ], ids=["n_sec-not-dividing-n", "no-H_M", "no-H_j", "H_j-length"])
    def test_sector_layout_model_c_rejects_exits_2(
        self, tmp_path, capsys, overrides, message
    ):
        layout = {"n": 10, "n_sec": 2, "H_M": 0.3, "H_j": [0.4, 0.5],
                  "P_group": 0.3}
        cfg = small_config(tmp_path, **{**layout, **overrides})
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("h_m", [0, 0.0, -0.1])
    def test_nonpositive_market_comovement_exits_2(self, tmp_path, capsys, h_m):
        cfg = small_config(tmp_path, n=4, n_sec=2, H_M=h_m, H_j=[0.4, 0.5],
                           P_group=0.3, t_max=120)
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "H_M must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("h_m, h_j", [
        (1e-300, [0.5, 0.5]),
        (1e-12, [0.5, 0.5]),
        (0.001, [math.nextafter(0.001, 1)] * 2),
        (0.3, [math.nextafter(0.3, 1)] * 2),
    ], ids=["H_M-1e-300", "H_M-1e-12", "H_j-ulp-above-0.001", "H_j-ulp-above-0.3"])
    def test_group_counts_beyond_the_bound_exit_2(self, tmp_path, capsys, h_m, h_j):
        # without the bound these run with one M-group slot a day (a cast
        # overflow), run out of memory (hundreds of TiB), run with 250 slots a
        # day, and run out of memory or raise "array is too big" (by seed)
        cfg = small_config(tmp_path, N=600, n=4, n_sec=2, H_M=h_m, H_j=h_j,
                           P_group=0.1, t_max=60)
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: H_M={h_m} and H_j={tuple(h_j)} allow more than "
                       "999999999 S-groups in a sector or M-group slots\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("fields, message", [
        # 1.5e9 S-groups: within a C long, above numpy's hypergeometric limit
        ({"N": 10000, "n": 1000, "n_sec": 1, "H_M": 0.5,
          "H_j": [0.5000000073], "P_group": 0.01, "t_max": 52},
         "more than 999999999 S-groups in a sector"),
        # one output day makes no panel
        ({"N": 200, "n": 4, "n_sec": 2, "H_M": 0.363, "H_j": [0.491, 0.546],
          "P_group": 0.2, "t_max": 51},
         "model c needs at least 2 output days for its panel; t_max=51 "
         "leaves 1 after the 50-day warmup"),
    ], ids=["hypergeometric-limit", "one-output-day"])
    def test_config_c_failing_midway_exits_2(self, tmp_path, capsys, fields,
                                             message):
        cfg = small_config(tmp_path, seed=1, **fields)
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("detail", ["", "Unable to allocate 22.4 GiB"])
    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch, detail):
        def exhausted(model, config):
            raise MemoryError(detail)

        monkeypatch.setattr("herdsim.cli.run_model", exhausted)
        cfg = small_config(tmp_path)
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert detail in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("error, message", [
        (OSError(errno.EIO, "Input/output error"), "Input/output error"),
        (OSError(errno.ENOSPC, "No space left on device"), "No space left on device"),
        (OSError("device went away"), "device went away"),
    ], ids=["EIO", "ENOSPC", "no-errno"])
    def test_os_error_without_a_path_exits_1(self, tmp_path, capsys, monkeypatch,
                                             error, message):
        # an error of the disk, not of a file the user named
        def fail(*args):
            raise error

        monkeypatch.setattr("herdsim.ingest.write_csv_table", fail)
        cfg = small_config(tmp_path)
        assert run(["simulate", "a", "--config", cfg, "--out", tmp_path / "r"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched runner reaches the workers by fork")
    def test_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        # a worker killed mid-run, as by the kernel when memory runs out
        def killed(config):
            os._exit(3)

        monkeypatch.setitem(simcore.RUNNERS, "a", killed)
        cfg = small_config(tmp_path)
        assert run(["simulate", "a", "--config", cfg, "--ensemble", 2,
                    "--jobs", 2, "--out", tmp_path / "r"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BrokenProcessPool: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("members", [[], ["--ensemble", 2, "--jobs", 1]],
                             ids=["single", "first-of-ensemble"])
    def test_failed_run_leaves_no_out_directory(self, tmp_path, capsys,
                                                monkeypatch, members):
        def exhausted(config):
            raise MemoryError("Unable to allocate 22.4 GiB")

        monkeypatch.setitem(simcore.RUNNERS, "a", exhausted)
        cfg = small_config(tmp_path)
        out = tmp_path / "r"
        assert run(["simulate", "a", "--config", cfg, "--out", out,
                    *members]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert not out.exists()

    def test_later_member_failing_leaves_no_out_directory(self, tmp_path,
                                                          monkeypatch):
        # the first member's files are written, then removed with --out
        def second_exhausted(config):
            if config.seed == 8:
                raise MemoryError()
            return simcore.run_model_a(config)

        monkeypatch.setitem(simcore.RUNNERS, "a", second_exhausted)
        cfg = small_config(tmp_path)
        out = tmp_path / "r"
        assert run(["simulate", "a", "--config", cfg, "--out", out,
                    "--ensemble", 2, "--jobs", 1]) == 1
        assert not out.exists()

    def test_ensemble_out_holding_another_runs_member(self, tmp_path, capsys):
        # seeds 7-9, then 7-8 into the same --out: seed_9/ would stay, in
        # no manifest, so the second run is refused and nothing changes
        out = tmp_path / "e"
        ensemble = ["simulate", "a", "--config", small_config(tmp_path),
                    "--out", out, "--ensemble"]
        assert run(ensemble + [3]) == 0
        capsys.readouterr()
        files = {path: digest(path) for path in out.rglob("*") if path.is_file()}
        assert run(ensemble + [2]) == 2
        assert capsys.readouterr().err == (
            f"error: {out} holds seed_9/ of another run; "
            "give this run another --out\n")
        assert {path: digest(path) for path in out.rglob("*")
                if path.is_file()} == files
        assert run(ensemble + [3]) == 0  # the same ensemble again
        assert_manifest_lists_its_outputs(out)

    def test_single_run_into_another_models_out(self, tmp_path, capsys):
        # model C's panel.csv and sectors.csv would stay beside model A's
        # run, in no manifest
        cfg = small_config(tmp_path, n=10, n_sec=2, H_M=0.363,
                           H_j=[0.491, 0.546], P_group=0.363)
        out = tmp_path / "x"
        model_c = ["simulate", "c", "--config", cfg, "--out", out]
        assert run(model_c) == 0
        capsys.readouterr()
        files = {path: digest(path) for path in out.rglob("*") if path.is_file()}
        assert run(["simulate", "a", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {out} holds panel.csv, sectors.csv of another run; "
            "give this run another --out\n")
        assert {path: digest(path) for path in out.rglob("*")
                if path.is_file()} == files
        assert run(model_c) == 0  # the same command again
        assert_manifest_lists_its_outputs(out)

    def test_ensemble_into_a_single_runs_out(self, tmp_path, capsys):
        # the single run's returns.csv and diagnostics.csv would stay beside
        # the ensemble's members
        out = tmp_path / "y"
        single = ["simulate", "a", "--config", small_config(tmp_path), "--out", out]
        assert run(single) == 0
        capsys.readouterr()
        files = {path: digest(path) for path in out.rglob("*") if path.is_file()}
        assert run(single + ["--ensemble", 2]) == 2
        assert capsys.readouterr().err == (
            f"error: {out} holds returns.csv, diagnostics.csv of another run; "
            "give this run another --out\n")
        assert {path: digest(path) for path in out.rglob("*")
                if path.is_file()} == files
        assert run(single) == 0  # the same command again
        assert_manifest_lists_its_outputs(out)

    def test_integral_float_counts_become_ints(self, tmp_path):
        kwargs = dict(N=2000, H_M=0.363, H_j=[0.491, 0.546], P_group=0.363, t_max=200)
        (tmp_path / "i").mkdir()
        (tmp_path / "f").mkdir()
        as_ints = small_config(tmp_path / "i", n=10, n_sec=2, **kwargs)
        as_floats = small_config(tmp_path / "f", n=10.0, n_sec=2.0, **kwargs)
        assert run(["simulate", "c", "--config", as_ints, "--out", tmp_path / "ri"]) == 0
        assert run(["simulate", "c", "--config", as_floats, "--out", tmp_path / "rf"]) == 0
        assert digest(tmp_path / "ri" / "returns.csv") == digest(
            tmp_path / "rf" / "returns.csv"
        )
        manifest = json.loads((tmp_path / "rf" / "manifest.json").read_text())
        assert manifest["config"]["n"] == 10

    def test_model_c_emits_panel_and_sectors(self, tmp_path):
        cfg = small_config(
            tmp_path, N=2000, n=10, n_sec=2, H_M=0.363,
            H_j=[0.491, 0.546], P_group=0.363, t_max=300,
        )
        out = tmp_path / "rc"
        assert run(["simulate", "c", "--config", cfg, "--out", out]) == 0
        assert (out / "sectors.csv").exists()
        with open(out / "returns.csv", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["day", "R"]
        # R is the sum of the stocks' returns, which only panel.csv holds
        with open(out / "panel.csv", encoding="utf-8") as fh:
            _, *panel = csv.reader(fh)
        assert len(rows) == len(panel) == 250
        for (day, r), (date, *stocks) in zip(rows, panel):
            assert day == date
            assert int(r) == sum(int(float(v)) for v in stocks)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["H_j"] == [0.491, 0.546]
        assert manifest["config_hash"] == hashlib.sha256(
            json.dumps(manifest["config"], sort_keys=True).encode()
        ).hexdigest()

    @pytest.mark.parametrize("model, flags", [
        ("a", []),
        ("c", []),
        ("d", ["--ensemble", 2]),
        ("c", ["--ensemble", 2, "--jobs", 2]),
    ])
    def test_manifest_lists_every_output(self, tmp_path, model, flags):
        cfg = small_config(tmp_path, N=2000, n=10, n_sec=2, H_M=0.363,
                           H_j=[0.491, 0.546], P_group=0.363, t_max=200)
        out = tmp_path / "r"
        assert run(["simulate", model, "--config", cfg, *flags, "--out", out]) == 0
        assert_manifest_lists_its_outputs(out)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("model", ["a", "c"])
    def test_single_run_is_its_ensemble_member(self, tmp_path, model, jobs):
        extra = dict(N=2000, n=10, n_sec=2, H_M=0.363, H_j=[0.491, 0.546],
                     P_group=0.363) if model == "c" else {}
        cfg = small_config(tmp_path, t_max=200, **extra)
        one, two = tmp_path / "one", tmp_path / "two"
        assert run(["simulate", model, "--config", cfg, "--out", one]) == 0
        assert run(["simulate", model, "--config", cfg, "--out", two,
                    "--ensemble", 2, "--jobs", jobs]) == 0
        names = ["returns.csv", "diagnostics.csv"]
        if model == "c":
            names += ["panel.csv", "sectors.csv"]
        for name in names:
            assert (one / name).read_bytes() == (two / "seed_7" / name).read_bytes()
        assert not (one / "ensemble.json").exists()

    def test_ensemble_agnostic_to_worker_count(self, tmp_path):
        cfg = small_config(tmp_path, t_max=200)
        run(["simulate", "a", "--config", cfg, "--out", tmp_path / "e1",
             "--ensemble", 3, "--jobs", 1])
        run(["simulate", "a", "--config", cfg, "--out", tmp_path / "e2",
             "--ensemble", 3, "--jobs", 3])
        m1 = json.loads((tmp_path / "e1" / "ensemble.json").read_text())["members"]
        m2 = json.loads((tmp_path / "e2" / "ensemble.json").read_text())["members"]
        assert m1 == m2
        assert [m["seed"] for m in m1] == [7, 8, 9]


class TestAnalyze:
    @pytest.fixture
    def run_dir(self, tmp_path):
        cfg = small_config(tmp_path, N=2000, t_max=4050, delta_R=3)
        out = tmp_path / "run"
        assert run(["simulate", "a", "--config", cfg, "--out", out]) == 0
        return out

    def test_lcurve_rows(self, tmp_path, run_dir):
        out = tmp_path / "lc"
        assert run(["analyze", "lcurve", "--in", run_dir / "returns.csv",
                    "--max-lag", 40, "--out", out]) == 0
        with open(out / "lcurve.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 40
        assert rows[0] == ["lag", "value"]

    def test_stats_fields(self, tmp_path, run_dir):
        out = tmp_path / "st"
        assert run(["analyze", "stats", "--in", run_dir / "returns.csv",
                    "--tail-fraction", 0.1, "--out", out]) == 0
        data = json.loads((out / "stats.json").read_text())
        assert set(data) >= {"hurst", "tail_exponent", "kurtosis_excess"}
        assert 0.0 < data["hurst"] <= 1.5

    def test_stats_json_is_the_library_on_the_returns_column(self, tmp_path,
                                                              run_dir):
        out = tmp_path / "st"
        assert run(["analyze", "stats", "--in", run_dir / "returns.csv",
                    "--tail-fraction", 0.1, "--out", out]) == 0
        data = json.loads((out / "stats.json").read_text())
        raw = ingest.load_returns_column(run_dir / "returns.csv")
        r = stats.normalize(raw)
        assert list(data) == ["n_days", "sigma", "mean", "hurst", "tail_exponent",
                              "tail_fraction", "kurtosis_excess"]
        assert data == {
            "n_days": len(raw),
            "sigma": float(np.std(raw)),
            "mean": float(np.mean(raw)),
            "hurst": stats.hurst_exponent(np.abs(r)),
            "tail_exponent": stats.tail_exponent(r, 0.1),
            "tail_fraction": 0.1,
            "kurtosis_excess": float(np.mean(r**4) / np.mean(r**2) ** 2 - 3.0),
        }

    def test_lcurve_fit_json_is_the_library_fit(self, tmp_path, run_dir):
        # this run's L curve keeps one sign up to lag 20
        out = tmp_path / "lc"
        assert run(["analyze", "lcurve", "--in", run_dir / "returns.csv",
                    "--max-lag", 10, "--out", out]) == 0
        data = json.loads((out / "lcurve_fit.json").read_text())
        r = stats.normalize(ingest.load_returns_column(run_dir / "returns.csv"))
        fit = stats.fit_exponential(stats.return_volatility_correlation(r, 10))
        assert list(data) == ["estimator", "max_lag", "exponential_fit"]
        assert list(data["exponential_fit"]) == ["model_id", "params", "residual_rms"]
        assert list(data["exponential_fit"]["params"]) == ["c", "tau"]
        assert data["exponential_fit"] == fit

    def test_spectrum_outputs(self, tmp_path):
        cfg = small_config(
            tmp_path, N=2000, n=10, n_sec=2, H_M=0.363,
            H_j=[0.491, 0.546], P_group=0.363, t_max=700,
        )
        out = tmp_path / "rc"
        run(["simulate", "c", "--config", cfg, "--out", out])
        spec_out = tmp_path / "spec"
        assert run(["analyze", "spectrum", "--panel", out / "panel.csv",
                    "--sectors", out / "sectors.csv", "--out", spec_out]) == 0
        data = json.loads((spec_out / "spectrum.json").read_text())
        assert len(data["eigenvalues"]) == 10
        assert (spec_out / "eigenvectors.csv").exists()
        bounds = json.loads((spec_out / "bounds.json").read_text())
        assert bounds["lambda_plus"] > bounds["lambda_minus"] > 0

    def test_manifests_list_their_outputs(self, tmp_path, run_dir):
        cfg = small_config(tmp_path, N=2000, n=10, n_sec=2, H_M=0.363,
                           H_j=[0.491, 0.546], P_group=0.363, t_max=700)
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "rc"]) == 0
        returns = ["--in", run_dir / "returns.csv"]
        panel = ["--panel", tmp_path / "rc" / "panel.csv",
                 "--sectors", tmp_path / "rc" / "sectors.csv"]
        for what, args, names in [
            ("lcurve", returns, ["lcurve.csv", "lcurve_fit.json"]),
            ("stats", returns, ["acurve.csv", "stats.json"]),
            ("spectrum", panel, ["spectrum.json", "eigenvectors.csv", "bounds.json"]),
        ]:
            out = tmp_path / what
            assert run(["analyze", what, *args, "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert sorted(manifest["outputs"]) == sorted(names)
            assert_manifest_lists_its_outputs(out)

    def test_degenerate_series_exits_1(self, tmp_path, capsys):
        path = write_csv(
            tmp_path / "flat.csv", ["day", "R"], [(i, 0) for i in range(1, 700)]
        )
        assert run(["analyze", "stats", "--in", path, "--out", tmp_path / "o"]) == 1

    def test_stats_failing_on_the_tail_writes_no_file(self, tmp_path, capsys):
        # 1,150 days pass DFA and the A curve, then hold 57 Hill tail points
        returns = np.random.default_rng(1).normal(0, 50, 1150).round()
        path = write_csv(tmp_path / "returns.csv", ["day", "R"],
                         enumerate(returns.astype(int).tolist(), start=1))
        out = tmp_path / "o"
        assert run(["analyze", "stats", "--in", path, "--out", out]) == 2
        assert "only 57 tail points; need at least 100" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_failing_on_the_bounds_writes_no_file(self, tmp_path, capsys):
        # 3 days of 4 stocks decompose, but the Marchenko-Pastur bounds need T > n
        rows = np.random.default_rng(2).normal(0, 0.02, (3, 4)).tolist()
        panel = write_csv(tmp_path / "panel.csv", ["date", "A", "B", "C", "D"],
                          [[f"2015-01-0{i + 1}"] + [repr(x) for x in row]
                           for i, row in enumerate(rows)])
        sectors = write_csv(tmp_path / "sectors.csv", ["ticker", "sector_id"],
                            [("A", 1), ("B", 1), ("C", 2), ("D", 2)])
        out = tmp_path / "o"
        assert run(["analyze", "spectrum", "--panel", panel, "--sectors", sectors,
                    "--out", out]) == 1
        assert "UnsupportedRegimeError" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("what", ["stats", "lcurve"])
    def test_single_field_row_exits_2(self, tmp_path, capsys, what):
        path = tmp_path / "returns.csv"
        path.write_text("day,R\n1,3\n2\n3,-4\n")
        assert run(["analyze", what, "--in", path, "--out", tmp_path / "o"]) == 2
        assert "row 3: expected at least 2 fields, got 1" in capsys.readouterr().err


class TestCalibrateCommands:
    def test_asymmetry_report(self, tmp_path, index_csv):
        out = tmp_path / "cal"
        assert run(["calibrate", "asymmetry", "--index", index_csv,
                    "--horizon", 60, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["alpha"] + report["beta"] == pytest.approx(2.0, abs=1e-12)
        assert isinstance(report["delta_R"], int)
        assert "delta_r" in report
        assert report["M"] == 60
        assert "k" not in report
        assert (out / "report.txt").exists()

    def test_asymmetry_overflowing_volumes_exit_1(self, tmp_path, capsys,
                                                  index_csv):
        # finite volumes whose bull and bear means overflow float64, which
        # would make the volume ratio NaN
        rows = index_csv.read_text().splitlines()
        for i in range(100, len(rows), 3):
            day, close, _ = rows[i].split(",")
            rows[i] = f"{day},{close},1e308"
        index_csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cal"
        assert run(["calibrate", "asymmetry", "--index", index_csv,
                    "--horizon", 60, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: NumericError: volume ratio V+/V- overflows float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("tau", [[], ["--tau", "12"]], ids=["estimated", "given"])
    def test_infoforce_overflowing_volumes_exit_1(self, tmp_path, capsys,
                                                  info_files, tau):
        # finite trading volumes whose window sums overflow float64, which
        # would make the forces, delta_F and a NaN
        search, volumes, index = info_files
        rows = volumes.read_text().splitlines()
        for i in range(1, len(rows), 3):
            week, ticker, _ = rows[i].split(",")
            rows[i] = f"{week},{ticker},1e308"
        volumes.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cal"
        assert run(["calibrate", "infoforce", "--search", search, "--volumes",
                    volumes, "--index", index, "--out", out] + tau) == 1
        assert capsys.readouterr().err == (
            "error: NumericError: trading volumes of 'AAA' overflow float64 "
            "in a window average\n")
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "cal"
        code = run(["calibrate", "asymmetry", "--index", tmp_path / "ghost.csv",
                    "--out", out])
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_comovement_report(self, tmp_path, panel_files):
        panel, sectors, *_ = panel_files
        out = tmp_path / "cal"
        assert run(["calibrate", "comovement", "--panel", panel,
                    "--sectors", sectors, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["H_M"] > 0
        assert len(report["H_j"]) == 2

    def test_comovement_constant_column_names_its_ticker(self, tmp_path, capsys,
                                                         panel_files):
        panel, sectors, *_ = panel_files
        rows = [line.split(",") for line in panel.read_text().splitlines()]
        col = rows[0].index("CCC")
        for row in rows[1:]:
            row[col] = "0.0"
        panel.write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "cal"
        assert run(["calibrate", "comovement", "--panel", panel,
                    "--sectors", sectors, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == ("error: DegenerateSeriesError: constant return column "
                       "for ticker 'CCC'\n")
        assert not out.exists()

    @pytest.mark.parametrize("what", ["asymmetry", "comovement", "infoforce"])
    def test_manifest_lists_every_output(self, tmp_path, request, what):
        if what == "asymmetry":
            args = ["--index", request.getfixturevalue("index_csv"),
                    "--horizon", 60]
        elif what == "comovement":
            panel, sectors, *_ = request.getfixturevalue("panel_files")
            args = ["--panel", panel, "--sectors", sectors]
        else:
            search, volumes, index = request.getfixturevalue("info_files")
            args = ["--search", search, "--volumes", volumes, "--index", index,
                    "--tau", 12]
        out = tmp_path / "cal"
        assert run(["calibrate", what, *args, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["report.json", "report.txt"]
        assert_manifest_lists_its_outputs(out)

    def test_infoforce_report(self, tmp_path, info_files):
        search, volumes, index = info_files
        out = tmp_path / "cal"
        assert run(["calibrate", "infoforce", "--search", search,
                    "--volumes", volumes, "--index", index,
                    "--tau", 12, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tau"] == 12
        assert report["a"] == pytest.approx(report["delta_F"] / 2)
        # attention-linked volumes produce clearly positive forces
        assert report["delta_F"] == report["delta_F"]  # finite

    def test_infoforce_reports_window_counts(self, tmp_path, info_files):
        search, volumes, index = info_files
        out = tmp_path / "cal"
        assert run(["calibrate", "infoforce", "--search", search,
                    "--volumes", volumes, "--index", index,
                    "--tau", 12, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report)[-2:] == ["windows_skipped", "windows_unlabelled"]
        searches = ingest.load_search_series(search)
        trading = ingest.load_search_series(volumes)
        values, _ = calibrate.infoforce_report(
            searches, trading, ingest.load_index_series(index), tau=12)
        assert {key: report[key] for key in values} == values
        # 200 weeks: 189 windows per ticker, each kept or skipped; the index
        # covers every week but the first, whose return is missing (NaN)
        series = [calibrate.info_driving_force(calibrate.info_states(g), v, 12)
                  for g, v in zip(searches.volume.T, trading.volume.T)]
        kept = sum(len(s.forces) for s in series)
        assert kept + values["windows_skipped"] == 2 * (200 - 12 + 1)
        assert values["windows_unlabelled"] == sum(
            int(s.window_starts[0] == 0) for s in series if len(s.forces))

    def test_infoforce_report_lines_are_the_driving_forces(self, tmp_path,
                                                           info_gap_files):
        search, volumes, index = info_gap_files
        out = tmp_path / "cal"
        assert run(["calibrate", "infoforce", "--search", search,
                    "--volumes", volumes, "--index", index,
                    "--tau", 12, "--out", out]) == 0
        searches = ingest.load_search_series(search)
        trading = ingest.load_search_series(volumes)
        assert (trading.weeks, trading.tickers) == (searches.weeks, searches.tickers)
        lines = (out / "report.txt").read_text().splitlines()[4:]
        assert len(lines) == len(searches.tickers)
        # FLAT's constant attention skips every window: no mean force
        for line, ticker, g, v in zip(lines, searches.tickers,
                                      searches.volume.T, trading.volume.T):
            forces = calibrate.info_driving_force(
                calibrate.info_states(g), v, 12).forces
            mean = f"{np.mean(forces):.4f}" if len(forces) else "nan"
            assert line.split() == [ticker, "windows", str(len(forces)),
                                    "mean", "F", mean]

    def test_infoforce_estimates_tau(self, tmp_path, info_files):
        search, volumes, index = info_files
        out = tmp_path / "cal2"
        assert run(["calibrate", "infoforce", "--search", search,
                    "--volumes", volumes, "--index", index, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tau"] >= 2

    def test_infoforce_falls_back_when_tau_cannot_be_fitted(self, tmp_path,
                                                             info_files):
        search, volumes, index = info_files
        # attention cycling every 12 weeks: its autocorrelation is negative
        # at lag 6, inside the lags the power law of tau is fitted on
        t = np.arange(200)
        g = 5 + 2 * np.sin(2 * np.pi * t / 12)
        fast = write_csv(
            tmp_path / "fast_search.csv", ["week_start", "ticker", "volume"],
            [(w.isoformat(), ticker, repr(float(x)))
             for ticker in ("AAA", "BBB") for w, x in zip(weekly_dates(200), g)],
        )
        out = tmp_path / "cal4"
        assert run(["calibrate", "infoforce", "--search", fast,
                    "--volumes", volumes, "--index", index, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tau"] == calibrate.DEFAULT_TAU_WEEKS
        assert report["tau_deviation_found"] is False

    def test_infoforce_names_a_constant_attention_series(self, tmp_path, capsys,
                                                         info_files):
        search, volumes, index = info_files
        lines = search.read_text().splitlines()
        flat = tmp_path / "flat_search.csv"
        flat.write_text("\n".join(
            [lines[0]] + [re.sub(r",BBB,.*", ",BBB,5.0", r) for r in lines[1:]])
            + "\n")
        argv = ["calibrate", "infoforce", "--search", flat, "--volumes", volumes,
                "--index", index, "--out", tmp_path / "cal"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: DegenerateSeriesError: attention of 'BBB': "
            "constant magnitudes; A0 = 0\n")
        # a given tau needs no attention curve; BBB's windows are all skipped
        assert run(argv + ["--tau", 20]) == 0
        report = json.loads((tmp_path / "cal" / "report.json").read_text())
        assert report["windows_skipped"] >= 200 - 20 + 1

    def test_infoforce_tau_estimate_needs_124_common_weeks(self, tmp_path, capsys,
                                                           info_files):
        search, volumes, index = info_files
        # keep the last 100 of the 200 volume weeks
        first = weekly_dates(200)[100].isoformat()
        lines = volumes.read_text().splitlines()
        short = tmp_path / "volumes_short.csv"
        short.write_text("\n".join(
            [lines[0]] + [r for r in lines[1:] if r.split(",")[0] >= first]) + "\n")
        argv = ["calibrate", "infoforce", "--search", search, "--volumes", short,
                "--index", index, "--out", tmp_path / "cal"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "share only 100 weeks; need 124 to estimate tau" in err
        assert "--tau" in err
        assert run(argv + ["--tau", 12]) == 0

    def test_infoforce_short_volumes_file_names_the_shared_weeks(
            self, tmp_path, capsys, info_files):
        search, volumes, index = info_files
        # keep the first 30 of the 200 volume weeks
        lines = volumes.read_text().splitlines()
        last = weekly_dates(200)[29].isoformat()
        short = tmp_path / "volumes_30.csv"
        short.write_text("\n".join(
            [lines[0]] + [r for r in lines[1:] if r.split(",")[0] <= last]) + "\n")
        out = tmp_path / "cal"
        assert run(["calibrate", "infoforce", "--search", search, "--volumes",
                    short, "--index", index, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: search and volume files share only 30 weeks; need 124 to "
            "estimate tau; --tau sets it and needs fewer\n")
        assert not out.exists()

    def test_infoforce_search_tickers_without_a_common_week_exit_2(
            self, tmp_path, capsys, info_files):
        _, volumes, index = info_files
        weeks = weekly_dates(120)
        search = write_csv(
            tmp_path / "disjoint.csv", ["week_start", "ticker", "volume"],
            [(w.isoformat(), "AAA", "1.0") for w in weeks[:60]]
            + [(w.isoformat(), "BBB", "1.0") for w in weeks[60:]])
        assert run(["calibrate", "infoforce", "--search", search, "--volumes",
                    volumes, "--index", index, "--out", tmp_path / "cal"]) == 2
        assert capsys.readouterr().err == (
            f"error: {search}: tickers share no common weeks\n")

    def test_infoforce_aligns_offset_week_grids(self, tmp_path, info_files):
        search, volumes, index = info_files
        # drop the first 20 volume weeks: commands must align on the overlap
        lines = volumes.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        kept = [r for r in rows if r.split(",")[0] >= "2015-05-25"]
        offset = tmp_path / "volumes_offset.csv"
        offset.write_text("\n".join([header] + kept) + "\n")
        out = tmp_path / "cal3"
        assert run(["calibrate", "infoforce", "--search", search,
                    "--volumes", offset, "--index", index,
                    "--tau", 12, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert np.isfinite(report["delta_F"])

    @pytest.mark.parametrize("tau", [[], ["--tau", 12]])
    def test_infoforce_index_off_the_attention_clock_exits_2(
            self, tmp_path, capsys, info_files, tau):
        search, volumes, index = info_files
        # index dates two days after the week starts match no week of the
        # search and volume files
        lines = index.read_text().splitlines()
        late = tmp_path / "index_late.csv"
        late.write_text("\n".join([lines[0]] + [
            (date.fromisoformat(r[:10]) + timedelta(days=2)).isoformat() + r[10:]
            for r in lines[1:]]) + "\n")
        out = tmp_path / "cal"
        assert run(["calibrate", "infoforce", "--search", search,
                    "--volumes", volumes, "--index", late, *tau,
                    "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: the index has no return on any week the search and volume "
            "files share\n")
        assert not out.exists()


class TestManifestNumpyBuild:
    """Every command's manifest records the numpy build of its run."""

    def test_every_command_records_it(self, tmp_path, monkeypatch, info_files,
                                      panel_files):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        search, volumes, weekly = info_files
        panel, sectors, *_ = panel_files
        returns = np.random.default_rng(3).normal(0, 50, 4000).round()
        returns_csv = write_csv(tmp_path / "returns.csv", ["day", "R"],
                                enumerate(returns.astype(int).tolist(), start=1))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        for i, argv in enumerate([
            ["simulate", "a", "--config", small_config(tmp_path)],
            ["analyze", "lcurve", "--in", returns_csv],
            ["analyze", "stats", "--in", returns_csv],
            ["analyze", "spectrum", "--panel", panel, "--sectors", sectors],
            ["calibrate", "asymmetry", "--index", weekly, "--horizon", 60],
            ["calibrate", "comovement", "--panel", panel, "--sectors", sectors],
            ["calibrate", "infoforce", "--search", search, "--volumes", volumes,
             "--index", weekly, "--tau", 12],
        ]):
            out = tmp_path / f"out{i}"
            assert run([*argv, "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["numpy"] == {
                "version": np.__version__,
                "blas": f"{blas['name']} {blas['version']}",
                "OPENBLAS_NUM_THREADS": "1",
            }

    def test_missing_entries_are_null(self, tmp_path, monkeypatch):
        def no_build_information(mode):
            raise KeyError("Build Dependencies")

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setattr(np, "show_config", no_build_information)
        out = tmp_path / "r"
        assert run(["simulate", "a", "--config", small_config(tmp_path),
                    "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy"] == {"version": np.__version__, "blas": None,
                                     "OPENBLAS_NUM_THREADS": None}


class TestPipeline:
    """The calibrate -> simulate -> analyze chain, one command at a time."""

    def test_calibrate_simulate_analyze_chain(self, tmp_path, index_csv):
        cal_dir = tmp_path / "cal"
        sim_dir = tmp_path / "sim"
        lc_dir = tmp_path / "lc"
        cfg = small_config(tmp_path, N=2000, t_max=2000)
        assert run(["calibrate", "asymmetry", "--index", index_csv,
                    "--horizon", 50, "--out", cal_dir]) == 0
        assert run(["simulate", "a", "--config", cfg,
                    "--calibration", cal_dir / "report.json",
                    "--out", sim_dir]) == 0
        assert run(["analyze", "lcurve", "--in", sim_dir / "returns.csv",
                    "--max-lag", 15, "--out", lc_dir]) == 0
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        report = json.loads((cal_dir / "report.json").read_text())
        assert manifest["config"]["alpha"] == report["alpha"]
        assert manifest["config"]["delta_R"] == report["delta_R"]
        assert (lc_dir / "lcurve.csv").exists()


@pytest.mark.parametrize("args", [
    ["pipeline", "steps.json"],
    ["analyze", "lcurve", "--in", "returns.csv", "--format", "json"],
    ["calibrate", "asymmetry", "--index", "index.csv", "--gain", "0.1"],
], ids=["pipeline", "lcurve-format", "asymmetry-gain"])
def test_retired_command_lines_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        run(args)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


def _readme_command_lines():
    """Each `herdsim ...` line in the code blocks of the README's "Command
    line" section, in order, continuations joined, split as the shell
    would."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    lines = re.sub(r"\\\n\s*", " ", "".join(blocks)).splitlines()
    return [shlex.split(line, comments=True)[1:]
            for line in map(str.strip, lines) if line.startswith("herdsim ")]


@pytest.fixture(scope="module")
def readme_exit_codes(tmp_path_factory):
    """The exit code of each README command line, keyed by the line: the
    lines run in order through `main`, in a directory that holds small
    inputs under the README's file names."""
    root = tmp_path_factory.mktemp("readme")
    write_index_csv(root)
    write_panel_files(root)
    write_info_files(root, index_name="weekly_index.csv")
    # the calibration's M = 150 is the warmup too: 2050 days are left,
    # and analyze stats needs 2000
    (root / "config.json").write_text(json.dumps(
        {"N": 1000, "M": 50, "t_max": 2200, "seed": 0}))
    (root / "config_c.json").write_text(json.dumps(
        {"N": 2000, "M": 50, "n": 10, "n_sec": 2, "H_M": 0.363,
         "H_j": [0.491, 0.546], "P_group": 0.363, "t_max": 300}))
    codes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in _readme_command_lines():
            try:
                codes[" ".join(argv)] = main(argv)
            except SystemExit as exc:  # a line that does not parse
                codes[" ".join(argv)] = exc.code
    return codes


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line_parses(argv, readme_exit_codes):
    # each line parses and runs after the lines above it
    assert readme_exit_codes[" ".join(argv)] == 0


def test_default_out_root_env(tmp_path, monkeypatch, capsys, index_csv):
    # each command's default --out and the one line it prints
    root = tmp_path / "root"
    monkeypatch.setenv("HERDSIM_OUT", str(root))
    cfg = small_config(tmp_path, t_max=2050)  # analyze stats needs 2000 days
    assert run(["simulate", "a", "--config", cfg]) == 0
    out = root / "simulate-a"
    sha = digest(out / "returns.csv")[:12]
    assert capsys.readouterr().out == f"run written to {out} (returns sha256 {sha})\n"
    assert run(["analyze", "stats", "--in", out / "returns.csv"]) == 0
    out = root / "analyze-stats"
    assert (out / "stats.json").exists()
    assert capsys.readouterr().out == f"analysis written to {out}\n"
    assert run(["calibrate", "asymmetry", "--index", index_csv, "--horizon", 60]) == 0
    out = root / "calibrate-asymmetry"
    assert (out / "report.json").exists()
    assert capsys.readouterr().out == f"report written to {out}\n"
    ensemble = tmp_path / "e"
    assert run(["simulate", "a", "--config", cfg, "--ensemble", 2,
                "--out", ensemble]) == 0
    assert capsys.readouterr().out == f"2 runs written to {ensemble}\n"


class TestBadInputsExit2:
    """Bad paths, JSON files and counts end with exit 2 and one stderr line."""

    def expect_exit_2(self, capsys, args, message):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err
        return err

    @pytest.mark.parametrize("command, flag", [
        (["analyze", "stats"], "--in"),
        (["calibrate", "comovement", "--sectors", "SECTORS"], "--panel"),
        (["calibrate", "infoforce", "--volumes", "SEARCH", "--index", "INDEX"],
         "--search"),
    ])
    def test_directory_as_input_file(self, tmp_path, capsys, command, flag):
        files = {"SECTORS": write_csv(tmp_path / "s.csv", ["ticker", "sector_id"],
                                      [("AAA", "1")]),
                 "SEARCH": tmp_path / "search.csv", "INDEX": tmp_path / "i.csv"}
        args = [files.get(a, a) for a in command]
        self.expect_exit_2(capsys, args + [flag, tmp_path, "--out", tmp_path / "o"],
                           "Is a directory")

    @pytest.mark.parametrize("command, flag", [
        (["calibrate", "asymmetry"], "--index"),
        (["calibrate", "comovement", "--panel", "PANEL"], "--sectors"),
        (["analyze", "stats"], "--in"),
        (["analyze", "spectrum", "--sectors", "SECTORS"], "--panel"),
        (["simulate", "a"], "--config"),
    ])
    def test_missing_input_file(self, tmp_path, capsys, panel_files,
                                command, flag):
        panel, sectors, *_ = panel_files
        args = [{"PANEL": panel, "SECTORS": sectors}.get(a, a) for a in command]
        missing, out = tmp_path / "ghost.csv", tmp_path / "o"
        assert run(args + [flag, missing, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"
        assert not out.exists()

    def test_csv_that_is_not_text(self, tmp_path, capsys):
        path = tmp_path / "returns.csv"
        path.write_bytes(b"day,R\n1,3\n2,\xff4\n3,5\n")
        self.expect_exit_2(capsys, ["analyze", "stats", "--in", path, "--out",
                                    tmp_path / "o"], "not utf-8 text")

    def test_out_below_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", small_config(tmp_path),
                     "--out", blocker / "run"], "Not a directory")

    def test_out_that_cannot_be_made_fails_before_the_input(self, tmp_path,
                                                            capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", tmp_path / "ghost.json",
                     "--out", blocker / "run"], "Not a directory")

    def test_out_is_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", small_config(tmp_path),
                     "--out", blocker], "File exists")

    @pytest.mark.parametrize("args", [
        ["simulate", "a", "--config", "CONFIG", "--out", "LONG/run"],
        ["analyze", "lcurve", "--in", "LONG/returns.csv", "--out", "OUT"],
    ], ids=["simulate-out", "analyze-in"])
    def test_path_component_too_long(self, tmp_path, capsys, args):
        long = str(tmp_path / ("x" * 300))
        paths = {"CONFIG": str(small_config(tmp_path)), "OUT": str(tmp_path / "o")}
        args = [paths.get(a, a.replace("LONG", long)) for a in args]
        self.expect_exit_2(capsys, args, "File name too long")

    @pytest.mark.parametrize("flag, value, message", [
        ("--horizon", "20", "M must lie in [50, 500], got 20"),
    ])
    def test_asymmetry_gain_or_horizon_a_config_rejects(
        self, tmp_path, capsys, index_csv, flag, value, message
    ):
        # simulate --calibration would reject the report's M
        out = tmp_path / "cal"
        self.expect_exit_2(capsys, ["calibrate", "asymmetry", "--index", index_csv,
                                    flag, value, "--out", out], message)
        assert not out.exists()

    def test_asymmetry_zero_volume_after_bear_days(self, tmp_path, capsys,
                                                   index_csv):
        # index row t + 1 holds the volume that follows the R' of return t
        series = ingest.load_index_series(index_csv)
        returns = ingest.log_returns(series)
        signs = np.sign(weighted_returns(returns, 60, 1.0))
        bear_rows = 60 + 1 + np.flatnonzero(signs[: len(returns) - 60] < 0)
        rows = index_csv.read_text().splitlines()
        for i in bear_rows:
            day, close, _ = rows[1 + i].split(",")
            rows[1 + i] = f"{day},{close},0"
        index_csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cal"
        self.expect_exit_2(capsys, ["calibrate", "asymmetry", "--index", index_csv,
                                    "--horizon", 60, "--out", out],
                           "zero mean volume after bull or bear days")
        assert not out.exists()

    def test_header_with_an_open_quote(self, tmp_path, capsys, index_csv):
        # csv reads the rest of the file into the header's first cell
        index_csv.write_text('"' + index_csv.read_text())
        out = tmp_path / "cal"
        self.expect_exit_2(capsys, ["calibrate", "asymmetry", "--index", index_csv,
                                    "--out", out], "expected header date,close,volume")
        assert not out.exists()

    def test_cell_with_an_open_quote(self, tmp_path, capsys, index_csv):
        # csv reads the rest of the file into the last cell of row 3
        rows = index_csv.read_text().splitlines(keepends=True)
        day, close, volume = rows[2].split(",")
        rows[2] = f'{day},{close},"{volume}'
        index_csv.write_text("".join(rows))
        out = tmp_path / "cal"
        err = self.expect_exit_2(capsys, ["calibrate", "asymmetry", "--index",
                                          index_csv, "--out", out],
                                 "row 3: cannot parse volume '")
        assert len(err) < 300
        assert not out.exists()

    def test_ticker_with_a_line_break(self, tmp_path, capsys):
        sectors = write_csv(tmp_path / "s.csv", ["ticker", "sector_id"],
                            [("A\nB", "1"), ("C", "1")])
        panel = write_csv(tmp_path / "p.csv", ["date", "A\nB", "C"],
                          [("2020-01-01", "0.1", "0.2"), ("2020-01-02", "x", "0.1")])
        out = tmp_path / "cal"
        self.expect_exit_2(capsys, ["calibrate", "comovement", "--panel", panel,
                                    "--sectors", sectors, "--out", out],
                           "row 3: cannot parse A\\nB 'x'")
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        (["comovement", "--panel", "PANEL", "--sectors", "ONE_STOCK_SECTOR"],
         "sector '2' has fewer than 2 stocks"),
        (["infoforce", "--search", "HEADER_ONLY", "--volumes", "SEARCH",
          "--index", "INDEX"], "no data rows"),
        (["asymmetry", "--index", "INDEX", "--horizon", "50"],
         "need more than 50 days of returns, got 50"),
    ], ids=["one-stock-sector", "header-only-search", "index-of-horizon-days"])
    def test_inputs_too_small_to_estimate(
        self, tmp_path, capsys, panel_files, command, message
    ):
        header = ["week_start", "ticker", "volume"]
        weeks = weekly_dates(60)
        files = {
            "PANEL": panel_files[0],
            "ONE_STOCK_SECTOR": write_csv(
                tmp_path / "one.csv", ["ticker", "sector_id"],
                [("AAA", "1"), ("BBB", "1"), ("CCC", "1"), ("DDD", "2")]),
            "HEADER_ONLY": write_csv(tmp_path / "empty.csv", header, []),
            "SEARCH": write_csv(tmp_path / "search.csv", header,
                                [(w.isoformat(), "AAA", "1") for w in weeks]),
            # 51 closes make 50 returns, one fewer than horizon 50 needs
            "INDEX": write_csv(tmp_path / "index.csv", ["date", "close", "volume"],
                               [(w.isoformat(), str(100 + i % 3), "1")
                                for i, w in enumerate(weeks[:51])]),
        }
        out = tmp_path / "cal"
        args = ["calibrate"] + [files.get(a, a) for a in command]
        self.expect_exit_2(capsys, args + ["--out", out], message)
        assert not out.exists()

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"N": 1000,')
        self.expect_exit_2(capsys, ["simulate", "a", "--config", bad,
                                    "--out", tmp_path / "r"], "invalid JSON")

    def test_invalid_json_calibration(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("alpha = 1")
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", small_config(tmp_path),
                     "--calibration", bad, "--out", tmp_path / "r"], "invalid JSON")

    @pytest.mark.parametrize("flag, value", [("--ensemble", -3), ("--jobs", -5)])
    def test_counts_below_one(self, tmp_path, capsys, flag, value):
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", small_config(tmp_path),
                     "--ensemble", 2, flag, value, "--out", tmp_path / "r"],
            f"{flag} must be >= 1, got {value}")
        assert not (tmp_path / "r").exists()

    def test_ensemble_seed_past_the_bound(self, tmp_path, capsys):
        config = small_config(tmp_path, t_max=120)
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", config, "--seed", 2147483647,
                     "--ensemble", 2, "--out", tmp_path / "r"],
            "seed must be at most 2147483647")
        assert not (tmp_path / "r").exists()
        assert run(["simulate", "a", "--config", config, "--seed", 2147483646,
                    "--ensemble", 2, "--out", tmp_path / "r"]) == 0

    def test_ensemble_past_the_seed_bound_exits_before_its_members(
            self, tmp_path, capsys, monkeypatch):
        # 2**31 member configs would fill the memory before the seed check
        # ran; a member list that is built first fails here after 100
        replace = dataclasses.replace
        made = []

        def counted(config, **changes):
            made.append(changes)
            assert len(made) < 100, "member configs built before the seed check"
            return replace(config, **changes)

        monkeypatch.setattr(dataclasses, "replace", counted)
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", small_config(tmp_path),
                     "--ensemble", 2**31, "--out", tmp_path / "r"],
            "seed must be at most 2147483647")
        assert not (tmp_path / "r").exists()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", sorted(_subclasses(errors.HerdsimError),
                                         key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_has_its_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(args, out):
        raise error("no estimate")

    monkeypatch.setattr("herdsim.cli.cmd_analyze", fail)
    code = run(["analyze", "stats", "--in", tmp_path / "r.csv",
                "--out", tmp_path / "o"])
    if issubclass(error, errors.InputError):
        assert code == 2
    else:
        assert issubclass(error, errors.NumericError) and code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no estimate" in err
    assert err.count("\n") == 1


class TestFailedWriteLeavesNoOut:
    """A command whose write fails removes every directory it made, the
    parents of --out included, and none that was there before it
    (simulate's failing members are in TestSimulate)."""

    @staticmethod
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    def test_calibrate_after_report_json(self, tmp_path, capsys, monkeypatch,
                                         index_csv):
        # report.json is written; report.txt is not
        def open_but_report_txt(path, *args, **kwargs):
            if Path(path).name == "report.txt":
                self.full_disk()
            return open(path, *args, **kwargs)

        monkeypatch.setattr("herdsim.cli.open", open_but_report_txt, raising=False)
        out = tmp_path / "cal"
        assert run(["calibrate", "asymmetry", "--index", index_csv,
                    "--horizon", 60, "--out", out]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert not out.exists()

    def test_analyze_after_its_curve(self, tmp_path, capsys, monkeypatch):
        # acurve.csv is written; stats.json is not
        returns = tmp_path / "returns.csv"
        draws = np.random.default_rng(3).integers(-50, 50, 2000)
        write_csv(returns, ["day", "R"], enumerate(draws.tolist(), start=1))
        monkeypatch.setattr("herdsim.stats.write_results_json", self.full_disk)
        out = tmp_path / "o"
        assert run(["analyze", "stats", "--in", returns, "--out", out]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert not out.exists()

    def test_parents_made_for_out_go_too(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("herdsim.ingest.write_csv_table", self.full_disk)
        config = small_config(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(["simulate", "a", "--config", config,
                    "--out", "a/b/run"]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert list(work.iterdir()) == []

    def test_ancestor_there_before_stays(self, tmp_path, monkeypatch):
        monkeypatch.setattr("herdsim.ingest.write_csv_table", self.full_disk)
        (tmp_path / "a").mkdir()
        assert run(["simulate", "a", "--config", small_config(tmp_path),
                    "--out", tmp_path / "a" / "b" / "run"]) == 1
        assert list((tmp_path / "a").iterdir()) == []

    def test_out_made_before_the_command_stays(self, tmp_path, monkeypatch):
        monkeypatch.setattr("herdsim.ingest.write_csv_table", self.full_disk)
        out = tmp_path / "r"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert run(["simulate", "a", "--config", small_config(tmp_path),
                    "--out", out]) == 1
        assert (out / "notes.txt").read_text() == "kept\n"
