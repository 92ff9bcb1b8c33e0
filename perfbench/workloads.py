"""The four herdsim workloads: seeded input generators, CLI steps, output checks.

`generate` writes a workload's input files and a `plan.json` into a
directory. The timed worker and the set-up probe read only that directory,
so the program never sees the seed, only the generated files.

Why each workload exists (also in BENCHMARK.json):

single-stock     models A, B and D at paper scale, each `simulate` then
                 `analyze stats` and `analyze lcurve`. The day loops, the
                 aggregate sampler and the CLI CSV writers do nearly all the
                 work; ingest, spectral and calibrate sit idle.
multi-level      model C at the NYSE co-movement table, then `analyze
                 spectrum` and `calibrate comovement` on the simulated panel.
                 multi_stock dominates; the panel is written once and read
                 back twice, so CSV write and read changes both show.
calibrate-panel  synthetic market files only, no simulation: a 5000 x 200
                 panel with a market and 10 sector factors, a daily index,
                 and weekly attention/volume files. Panel parsing and the
                 comovement day loop dominate; every simulation change
                 predicts no change here.
ensemble         `simulate a --ensemble 8` with --jobs 1 and with --jobs 2:
                 the only workload that exercises the process-pool fan-out.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("single-stock", "multi-level", "calibrate-panel", "ensemble")

WARMUP = 150
NYSE_HM = 0.363
NYSE_HJ = (0.491, 0.414, 0.438, 0.431, 0.546)
NYSE_P = 0.363

# Paper-scale sizes, and the smallest inputs on which every command still
# succeeds ("mini": the set-up probe and the self-test use them).
SIZES = {
    "full": {
        "single_days": 20_000, "c_days": 2_500, "ensemble": 8,
        "panel_days": 5_000, "sectors": 10, "per_sector": 20,
        "search_tickers": 50, "weeks": 520,
    },
    "mini": {
        "single_days": 600, "c_days": 100, "ensemble": 2,
        "panel_days": 600, "sectors": 2, "per_sector": 5,
        "search_tickers": 5, "weeks": 260,
    },
}

SINGLE_MODELS = {
    # C1: leverage configuration of model A
    "a": {"alpha": 1.0, "delta_R": 3},
    "b": {"c": 0.5},
    # C7: information-driven model D
    "d": {"b1": 3.5, "a": 0.2, "tau": 26, "f": 0.8},
}


class CheckFailed(Exception):
    """An output did not match what the workload expects."""


@dataclass(frozen=True)
class Step:
    """One CLI call of an iteration, with the check run on its outputs."""

    kind: str  # "simulate", "analyze" or "calibrate"
    argv: list[str]
    check: Callable[[], None]
    days: int = 0  # output days a simulate step writes, all members counted
    label: str = ""  # "jobs1" or "jobs2" on the ensemble workload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------- generators


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rows(path: Path, header: str, rows) -> int:
    text = header + "\n" + "".join(row + "\n" for row in rows)
    path.write_text(text)
    return len(text)


def _business_dates(n: int, start: date = date(2000, 1, 3)) -> list[date]:
    days = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def _model_config(model: str, days: int, seed: int) -> dict:
    cfg = {"N": 10_000, "M": 150, "t_max": days + WARMUP, "warmup": WARMUP,
           "seed": seed}
    if model == "c":
        cfg.update(n=50, n_sec=5, H_M=NYSE_HM, H_j=list(NYSE_HJ),
                   P_group=NYSE_P)
    else:
        cfg.update(SINGLE_MODELS[model])
    return cfg


def _gen_single_stock(d: Path, size: dict, seed: int) -> dict:
    days = size["single_days"]
    for model in SINGLE_MODELS:
        _write_json(d / f"config_{model}.json", _model_config(model, days, seed))
    return {"days": days, "models": list(SINGLE_MODELS),
            "memory_bytes": {"returns array per model": 8 * days}}


def _gen_multi_level(d: Path, size: dict, seed: int) -> dict:
    days = size["c_days"]
    _write_json(d / "config_c.json", _model_config("c", days, seed))
    return {"days": days, "n_sec": len(NYSE_HJ),
            "memory_bytes": {"returns matrix": 8 * days * 50}}


def _gen_ensemble(d: Path, size: dict, seed: int) -> dict:
    days = size["single_days"]
    _write_json(d / "config_a.json", _model_config("a", days, seed))
    return {"days": days, "members": size["ensemble"],
            "memory_bytes": {"returns array per member": 8 * days}}


def _two_state(rng: np.random.Generator, n: int, mean_stay: float) -> np.ndarray:
    """0/1 path that flips with probability 1/mean_stay per step."""
    flips = rng.random(n) < 1.0 / mean_stay
    flips[0] = rng.random() < 0.5
    return np.cumsum(flips) % 2


def _gen_calibrate_panel(d: Path, size: dict, seed: int) -> dict:
    from herdsim import calibrate, ingest

    rng = np.random.default_rng(seed)
    n_days = size["panel_days"]
    n_sec, per = size["sectors"], size["per_sector"]
    n = n_sec * per
    dates = _business_dates(n_days)

    # panel: one market factor, one factor per sector, idiosyncratic noise
    market = rng.normal(0.0, 0.010, n_days)
    sector = rng.normal(0.0, 0.008, (n_days, n_sec))
    matrix = (market[:, None] + np.repeat(sector, per, axis=1)
              + rng.normal(0.0, 0.012, (n_days, n)))
    tickers = tuple(f"T{i + 1:03d}" for i in range(n))
    sector_of = {t: str(i // per + 1) for i, t in enumerate(tickers)}
    inputs = {}
    inputs["panel.csv"] = _write_rows(
        d / "panel.csv", "date," + ",".join(tickers),
        (day.isoformat() + "," + ",".join(map(repr, row))
         for day, row in zip(dates, matrix.tolist())),
    )
    inputs["sectors.csv"] = _write_rows(
        d / "sectors.csv", "ticker,sector_id",
        (f"{t},{sector_of[t]}" for t in sorted(sector_of)),
    )

    # daily index driven by the market factor; heavier volume after up-runs
    close = 100.0 * np.exp(np.cumsum(market + rng.normal(0.0, 0.002, n_days)))
    trend = np.convolve(np.diff(np.log(close), prepend=0.0), np.ones(20), "same")
    volume = 1e6 * np.exp(rng.normal(0.0, 0.1, n_days)) * np.where(
        trend > 0, 1.05, 1.0)
    inputs["index.csv"] = _write_rows(
        d / "index.csv", "date,close,volume",
        (f"{day.isoformat()},{c!r},{v!r}"
         for day, c, v in zip(dates, close.tolist(), volume.tolist())),
    )

    # weekly attention: a two-state process per ticker staying ~26 weeks;
    # trading volume is higher in high-attention weeks
    n_weeks = size["weeks"]
    weeks = [date(2010, 1, 4) + timedelta(weeks=i) for i in range(n_weeks)]
    search_rows, volume_rows = [], []
    for i in range(size["search_tickers"]):
        ticker = f"W{i + 1:03d}"
        state = _two_state(rng, n_weeks, 26.0)
        attention = np.maximum(50.0 + 30.0 * state + rng.normal(0, 5, n_weeks), 0.0)
        traded = 1e5 * (1.0 + 0.3 * state) * np.exp(rng.normal(0, 0.1, n_weeks))
        search_rows += [f"{w.isoformat()},{ticker},{x!r}"
                        for w, x in zip(weeks, attention.tolist())]
        volume_rows += [f"{w.isoformat()},{ticker},{x!r}"
                        for w, x in zip(weeks, traded.tolist())]
    inputs["search.csv"] = _write_rows(d / "search.csv", "week_start,ticker,volume",
                                       search_rows)
    inputs["volumes.csv"] = _write_rows(d / "volumes.csv", "week_start,ticker,volume",
                                        volume_rows)
    # one extra week in front, so every attention week carries a market return
    weekly_dates = [weeks[0] - timedelta(weeks=1)] + weeks
    weekly_close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, n_weeks + 1)))
    inputs["weekly_index.csv"] = _write_rows(
        d / "weekly_index.csv", "date,close,volume",
        (f"{w.isoformat()},{c!r},1.0"
         for w, c in zip(weekly_dates, weekly_close.tolist())),
    )

    # in-process oracle on the generator's own arrays; repr() round-trips
    # every float, so the CLI must reproduce these values exactly
    panel = ingest.ReturnsPanel(dates=tuple(dates), tickers=tickers,
                                sector_of=sector_of, matrix=matrix)
    como = calibrate.comovement(panel)
    asym = calibrate.asymmetry_report(
        ingest.IndexSeries(dates=tuple(dates), close=close, volume=volume),
        m=150, k=0.1)
    expected = {
        "comovement": {"H_M": como.H_M, "H_j": como.H_j},
        "asymmetry": {"alpha": asym.alpha, "beta": asym.beta,
                      "delta_r": asym.delta_r, "delta_R": asym.delta_R,
                      "volume_ratio": asym.volume_ratio},
    }
    _write_json(d / "expected.json", expected)
    return {
        "days": n_days, "tickers": n, "sectors": n_sec, "weeks": n_weeks,
        "search_tickers": size["search_tickers"],
        "input_bytes": inputs,
        "memory_bytes": {"panel matrix": matrix.nbytes,
                         "index columns": close.nbytes + volume.nbytes},
    }


GENERATORS = {
    "single-stock": _gen_single_stock,
    "multi-level": _gen_multi_level,
    "calibrate-panel": _gen_calibrate_panel,
    "ensemble": _gen_ensemble,
}


def generate(workload: str, directory: Path, seed: int, scale: str = "full") -> dict:
    """Write the inputs of `workload` for `seed` and return its plan."""
    directory.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "scale": scale}
    plan.update(GENERATORS[workload](directory, SIZES[scale], seed))
    _write_json(directory / "plan.json", plan)
    return plan


def load_plan(directory: Path) -> dict:
    return json.loads((directory / "plan.json").read_text())


# ------------------------------------------------------------------- checks


def _check_returns(path: Path, days: int, seen: dict, key: str) -> None:
    """returns.csv has one row per output day, and the same bytes as every
    earlier returns.csv checked under `key`."""
    data = path.read_bytes()
    rows = data.count(b"\n") - 1
    _require(rows == days, f"{path.name}: {rows} rows, expected {days}")
    digest = hashlib.sha256(data).hexdigest()
    _require(seen.setdefault("returns " + key, digest) == digest,
             f"{path}: differs from an earlier run of the same seed")


def _check_spectrum(out: Path) -> None:
    """The market mode lies above the Marchenko-Pastur bulk."""
    spectrum = json.loads((out / "spectrum.json").read_text())
    bounds = json.loads((out / "bounds.json").read_text())
    lam = spectrum["eigenvalues"][0]
    _require(lam > bounds["lambda_plus"],
             f"lambda_max {lam} not above lambda_+ {bounds['lambda_plus']}")


def _check_comovement(out: Path, n_sec: int, expected: dict | None) -> None:
    report = json.loads((out / "report.json").read_text())
    _require(len(report["H_j"]) == n_sec, f"H_j has {len(report['H_j'])} sectors")
    _require(all(math.isfinite(h) for h in [report["H_M"]] + report["H_j"]),
             "non-finite co-movement degree")
    if expected is not None:
        got = {"H_M": report["H_M"],
               "H_j": dict(zip(report["sector_ids"], report["H_j"]))}
        _require(got == expected, f"comovement report {got} != oracle {expected}")


def _check_asymmetry(out: Path, expected: dict) -> None:
    report = json.loads((out / "report.json").read_text())
    got = {k: report[k] for k in expected}
    _require(got == expected, f"asymmetry report {got} != oracle {expected}")


def _check_infoforce(out: Path, n_tickers: int) -> None:
    report = json.loads((out / "report.json").read_text())
    _require(report["tau"] >= 2, f"tau {report['tau']} < 2")
    _require(math.isfinite(report["delta_F"]), "non-finite delta_F")
    _require(len(report["tickers"]) == n_tickers,
             f"{len(report['tickers'])} tickers in report")


def _check_stats(out: Path, days: int) -> None:
    result = json.loads((out / "stats.json").read_text())
    _require(result["n_days"] == days, f"stats over {result['n_days']} days")
    _require(math.isfinite(result["hurst"]) and math.isfinite(result["tail_exponent"]),
             "non-finite Hurst or tail exponent")


def _check_lcurve(out: Path, max_lag: int) -> None:
    rows = (out / "lcurve.csv").read_text().count("\n") - 1
    _require(rows == max_lag, f"lcurve.csv has {rows} lags, expected {max_lag}")
    _require((out / "lcurve_fit.json").is_file(), "no lcurve_fit.json")


def _check_ensemble(out: Path, members: int, days: int, seen: dict) -> None:
    ensemble = json.loads((out / "ensemble.json").read_text())
    _require(len(ensemble["members"]) == members,
             f"{len(ensemble['members'])} ensemble members")
    for member in ensemble["members"]:
        _check_returns(out / member["dir"] / "returns.csv", days, seen,
                       member["dir"])
    # --jobs must not change ensemble.json, nor may a rerun of the same seed
    digest = hashlib.sha256((out / "ensemble.json").read_bytes()).hexdigest()
    _require(seen.setdefault("ensemble.json", digest) == digest,
             f"{out}/ensemble.json differs from the first ensemble run")


# -------------------------------------------------------------------- steps


def steps(plan: dict, inputs: Path, out: Path, seen: dict) -> list[Step]:
    """The CLI calls of one iteration writing under `out`, in order.

    `seen` carries digests between iterations so that reruns of the same
    seed can be checked for byte-identical output.
    """
    wl = plan["workload"]
    days = plan["days"]
    if wl == "single-stock":
        result = []
        for model in plan["models"]:
            sim = out / model / "sim"
            returns = sim / "returns.csv"
            tail = ["--tail-fraction", "0.2"] if plan["scale"] == "mini" else []
            result += [
                Step("simulate", ["simulate", model, "--config",
                                  str(inputs / f"config_{model}.json"), "--out", str(sim)],
                     lambda r=returns, m=model: _check_returns(r, days, seen, m),
                     days),
                Step("analyze", ["analyze", "stats", "--in", str(returns),
                                 "--out", str(out / model / "stats")] + tail,
                     lambda o=out / model / "stats": _check_stats(o, days)),
                Step("analyze", ["analyze", "lcurve", "--in", str(returns),
                                 "--out", str(out / model / "lcurve")],
                     lambda o=out / model / "lcurve": _check_lcurve(o, 40)),
            ]
        return result
    if wl == "multi-level":
        sim, spec, cal = out / "sim", out / "spectrum", out / "comovement"
        panel = ["--panel", str(sim / "panel.csv"), "--sectors", str(sim / "sectors.csv")]
        return [
            Step("simulate", ["simulate", "c", "--config", str(inputs / "config_c.json"),
                              "--out", str(sim)],
                 lambda: _check_returns(sim / "returns.csv", days, seen, "c"),
                 days),
            Step("analyze", ["analyze", "spectrum"] + panel + ["--out", str(spec)],
                 lambda: _check_spectrum(spec)),
            Step("calibrate", ["calibrate", "comovement"] + panel + ["--out", str(cal)],
                 lambda: _check_comovement(cal, plan["n_sec"], None)),
        ]
    if wl == "calibrate-panel":
        expected = json.loads((inputs / "expected.json").read_text())
        panel = ["--panel", str(inputs / "panel.csv"),
                 "--sectors", str(inputs / "sectors.csv")]
        como, spec = out / "comovement", out / "spectrum"
        asym, info = out / "asymmetry", out / "infoforce"
        return [
            Step("calibrate", ["calibrate", "comovement"] + panel + ["--out", str(como)],
                 lambda: _check_comovement(como, plan["sectors"], expected["comovement"])),
            Step("analyze", ["analyze", "spectrum"] + panel + ["--out", str(spec)],
                 lambda: _check_spectrum(spec)),
            Step("calibrate", ["calibrate", "asymmetry", "--index",
                               str(inputs / "index.csv"), "--out", str(asym)],
                 lambda: _check_asymmetry(asym, expected["asymmetry"])),
            Step("calibrate", ["calibrate", "infoforce",
                               "--search", str(inputs / "search.csv"),
                               "--volumes", str(inputs / "volumes.csv"),
                               "--index", str(inputs / "weekly_index.csv"),
                               "--out", str(info)],
                 lambda: _check_infoforce(info, plan["search_tickers"])),
        ]
    if wl == "ensemble":
        members = plan["members"]
        config = str(inputs / "config_a.json")
        result = []
        for jobs in (1, 2):
            ens = out / f"jobs{jobs}"
            result.append(Step(
                "simulate", ["simulate", "a", "--config", config, "--ensemble",
                             str(members), "--jobs", str(jobs), "--out", str(ens)],
                lambda e=ens: _check_ensemble(e, members, days, seen),
                days * members, f"jobs{jobs}"))
        return result
    raise ValueError(f"unknown workload {wl!r}")
