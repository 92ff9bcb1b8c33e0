import csv
import hashlib
import json

import numpy as np
import pytest

from conftest import weekly_dates, write_csv
from herdsim import calibrate, ingest
from herdsim.cli import main


def run(args):
    return main([str(a) for a in args])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    @pytest.mark.parametrize("h_m", [0, 0.0, -0.1])
    def test_nonpositive_market_comovement_exits_2(self, tmp_path, capsys, h_m):
        cfg = small_config(tmp_path, n=4, n_sec=2, H_M=h_m, H_j=[0.4, 0.5],
                           P_group=0.3, t_max=120)
        assert run(["simulate", "c", "--config", cfg, "--out", tmp_path / "r"]) == 2
        assert "H_M must be > 0" in capsys.readouterr().err

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
        assert (out / "panel.csv").exists()
        assert (out / "sectors.csv").exists()
        with open(out / "returns.csv") as fh:
            header = next(csv.reader(fh))
        assert header[:2] == ["day", "R"]
        assert len(header) == 2 + 10

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

    def test_lcurve_json_format(self, tmp_path, run_dir):
        out = tmp_path / "lcj"
        assert run(["analyze", "lcurve", "--in", run_dir / "returns.csv",
                    "--max-lag", 10, "--format", "json", "--out", out]) == 0
        data = json.loads((out / "lcurve.json").read_text())
        assert len(data["values"]) == 10

    def test_stats_fields(self, tmp_path, run_dir):
        out = tmp_path / "st"
        assert run(["analyze", "stats", "--in", run_dir / "returns.csv",
                    "--tail-fraction", 0.1, "--out", out]) == 0
        data = json.loads((out / "stats.json").read_text())
        assert set(data) >= {"hurst", "tail_exponent", "kurtosis_excess"}
        assert 0.0 < data["hurst"] <= 1.5

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

    def test_degenerate_series_exits_1(self, tmp_path, capsys):
        path = write_csv(
            tmp_path / "flat.csv", ["day", "R"], [(i, 0) for i in range(1, 700)]
        )
        assert run(["analyze", "stats", "--in", path, "--out", tmp_path / "o"]) == 1


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
        assert (out / "report.txt").exists()

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

    @pytest.fixture
    def info_files(self, tmp_path):
        rng = np.random.default_rng(20)
        n = 200
        weeks = weekly_dates(n)
        t = np.arange(n)
        attention = []
        trading = []
        for phase, ticker in ((0.0, "AAA"), (1.3, "BBB")):
            # slowly varying attention so its autocorrelation decays smoothly
            g = 5 + 2 * np.sin(2 * np.pi * t / 80 + phase) + rng.normal(0, 0.3, n)
            g = np.maximum(g, 0.0)
            v = rng.uniform(50, 150, n) + 40 * (g > g.mean())
            attention += [
                (w.isoformat(), ticker, repr(float(x))) for w, x in zip(weeks, g)
            ]
            trading += [
                (w.isoformat(), ticker, repr(float(x))) for w, x in zip(weeks, v)
            ]
        search = write_csv(
            tmp_path / "search.csv", ["week_start", "ticker", "volume"], attention
        )
        volumes = write_csv(
            tmp_path / "volumes.csv", ["week_start", "ticker", "volume"], trading
        )
        closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
        index = write_csv(
            tmp_path / "index.csv",
            ["date", "close", "volume"],
            [
                (w.isoformat(), repr(float(c)), "1")
                for w, c in zip(weeks, closes)
            ],
        )
        return search, volumes, index

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
        rep = calibrate.infoforce_report(
            ingest.load_search_series(search), ingest.load_search_series(volumes),
            ingest.load_index_series(index), tau=12)
        assert report["windows_skipped"] == rep.windows_skipped
        assert report["windows_unlabelled"] == rep.windows_unlabelled
        # 200 weeks: 189 windows per ticker, each kept or skipped; the index
        # covers every week but the first, whose return is missing (NaN)
        kept = sum(len(f.forces) for f in rep.forces)
        assert kept + rep.windows_skipped == 2 * (200 - 12 + 1)
        assert rep.windows_unlabelled == sum(
            int(f.window_starts[0] == 0) for f in rep.forces if len(f.forces))
        assert report["delta_F"] == rep.delta_F
        assert report["a"] == rep.a

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
        assert report["tau"] == ingest.DEFAULT_TAU_WEEKS
        assert report["tau_deviation_found"] is False

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


class TestPipeline:
    def test_calibrate_simulate_analyze_chain(self, tmp_path, index_csv):
        cal_dir = tmp_path / "cal"
        sim_dir = tmp_path / "sim"
        lc_dir = tmp_path / "lc"
        cfg = small_config(tmp_path, N=2000, t_max=2000)
        steps = {
            "steps": [
                ["calibrate", "asymmetry", "--index", str(index_csv),
                 "--horizon", "50", "--out", str(cal_dir)],
                ["simulate", "a", "--config", str(cfg),
                 "--calibration", str(cal_dir / "report.json"),
                 "--out", str(sim_dir)],
                ["analyze", "lcurve", "--in", str(sim_dir / "returns.csv"),
                 "--max-lag", "15", "--out", str(lc_dir)],
            ]
        }
        steps_path = tmp_path / "steps.json"
        steps_path.write_text(json.dumps(steps))
        assert run(["pipeline", steps_path]) == 0
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        report = json.loads((cal_dir / "report.json").read_text())
        assert manifest["config"]["alpha"] == report["alpha"]
        assert manifest["config"]["delta_R"] == report["delta_R"]
        assert (lc_dir / "lcurve.csv").exists()

    def test_failing_step_aborts(self, tmp_path, capsys):
        steps_path = tmp_path / "steps.json"
        steps_path.write_text(json.dumps({
            "steps": [
                ["simulate", "a", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "x")],
                ["analyze", "stats", "--in", str(tmp_path / "x" / "returns.csv"),
                 "--out", str(tmp_path / "y")],
            ]
        }))
        assert run(["pipeline", steps_path]) == 2
        assert not (tmp_path / "y").exists()
        # the failed step's error is the one line on stderr
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: no such file")


def test_default_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HERDSIM_OUT", str(tmp_path / "root"))
    cfg = small_config(tmp_path, t_max=120)
    assert run(["simulate", "a", "--config", cfg]) == 0
    assert (tmp_path / "root" / "simulate-a" / "returns.csv").exists()


class TestBadInputsExit2:
    """Bad paths, JSON files and counts end with exit 2 and one stderr line."""

    def expect_exit_2(self, capsys, args, message):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err

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

    def test_out_is_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", small_config(tmp_path),
                     "--out", blocker], "File exists")

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

    def test_invalid_json_steps(self, tmp_path, capsys):
        bad = tmp_path / "steps.json"
        bad.write_text('{"steps": [["simulate"]')
        self.expect_exit_2(capsys, ["pipeline", bad], "invalid JSON")

    def test_steps_file_holding_a_list(self, tmp_path, capsys):
        listed = tmp_path / "steps.json"
        listed.write_text(json.dumps([["analyze", "stats"]]))
        self.expect_exit_2(capsys, ["pipeline", listed], "'steps' list")

    @pytest.mark.parametrize("flag, value", [("--ensemble", -3), ("--jobs", -5)])
    def test_counts_below_one(self, tmp_path, capsys, flag, value):
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", small_config(tmp_path),
                     "--ensemble", 2, flag, value, "--out", tmp_path / "r"],
            f"{flag} must be >= 1, got {value}")
        assert not (tmp_path / "r").exists()

    def test_pipeline_step_running_a_pipeline(self, tmp_path, capsys):
        steps = tmp_path / "steps.json"
        out = tmp_path / "r"
        steps.write_text(json.dumps({"steps": [
            ["simulate", "a", "--config", str(small_config(tmp_path)),
             "--out", str(out)],
            ["pipeline", str(steps)],
        ]}))
        self.expect_exit_2(capsys, ["pipeline", steps], "step 1 runs a pipeline")
        assert not out.exists()

    def test_pipeline_step_that_does_not_parse(self, tmp_path, capsys):
        steps = tmp_path / "steps.json"
        out = tmp_path / "r"
        steps.write_text(json.dumps({"steps": [
            ["simulate", "a", "--config", str(small_config(tmp_path)),
             "--out", str(out)],
            ["simulate", "e", "--config", str(small_config(tmp_path))],
        ]}))
        self.expect_exit_2(capsys, ["pipeline", steps],
                           "step 1: herdsim simulate: error: argument model")
        assert not out.exists()

    def test_ensemble_seed_past_the_bound(self, tmp_path, capsys):
        config = small_config(tmp_path, t_max=120)
        self.expect_exit_2(
            capsys, ["simulate", "a", "--config", config, "--seed", 2147483647,
                     "--ensemble", 2, "--out", tmp_path / "r"],
            "seed must be at most 2147483647")
        assert not (tmp_path / "r").exists()
        assert run(["simulate", "a", "--config", config, "--seed", 2147483646,
                    "--ensemble", 2, "--out", tmp_path / "r"]) == 0
