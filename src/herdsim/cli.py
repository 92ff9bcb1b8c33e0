"""Command-line pipelines: calibrate, simulate, analyze.

Every command writes its results under an output directory (``--out``, or
``$HERDSIM_OUT/<command>-<subcommand>``) together with a run manifest that
records the command line, config hash, seed, tool version and input file
digests.  Exit codes: 0 success, 1 runtime/numeric failure (out of memory
included), 2 input or validation failure.

Simulation output schema: ``returns.csv`` with columns ``day,R`` (plus one
column per stock for model c), ``diagnostics.csv`` with per-day traces, and
for model c additionally ``panel.csv``/``sectors.csv`` ready for
``analyze spectrum``.  Rerunning with the same config and seed reproduces
``returns.csv`` byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, calibrate, ingest, spectral, stats
from .errors import HerdsimError, InputError, NumericError
from .simcore import ModelConfig, load_config, run_model
from .simcore.config import read_json
from .simcore.machinery import SimOutput

REPORT_KEYS = (
    "alpha", "beta", "delta_r", "delta_R", "H_M", "H_j", "tau", "delta_F", "a",
)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _out_dir(args, default_name: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get("HERDSIM_OUT", ".")) / default_name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, argv, inputs, seed=None, config=None, outputs=()):
    manifest = {
        "command": ["herdsim"] + list(argv),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()
        if config is not None
        else None,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {Path(p).name: _sha256(p) for p in outputs},
    }
    ingest.write_json(out / "manifest.json", manifest)


def _write_report(out: Path, values: dict, table_lines: list[str]) -> None:
    report = {key: values.get(key) for key in REPORT_KEYS}
    report.update({k: v for k, v in values.items() if k not in REPORT_KEYS})
    ingest.write_json(out / "report.json", report)
    with open(out / "report.txt", "w") as fh:
        fh.write("\n".join(table_lines) + "\n")


def cmd_calibrate(args, argv) -> int:
    out = _out_dir(args, f"calibrate-{args.what}")
    if args.what == "asymmetry":
        est = calibrate.asymmetry_report(
            ingest.load_index_series(args.index), m=args.horizon, k=args.gain
        )
        values, lines = est.report()
        values.update(M=args.horizon, k=args.gain)
        inputs = [args.index]
    elif args.what == "comovement":
        panel = ingest.load_returns_panel(
            args.panel, args.sectors, forward_fill=args.forward_fill
        )
        values, lines = calibrate.comovement(panel).report()
        inputs = [args.panel, args.sectors]
    else:  # infoforce
        values, lines = calibrate.infoforce_report(
            ingest.load_search_series(args.search),
            ingest.load_search_series(args.volumes),
            ingest.load_index_series(args.index),
            tau=args.tau,
        ).report()
        inputs = [args.search, args.volumes, args.index]
    _write_report(out, values, lines)
    _write_manifest(out, argv, inputs, outputs=[out / "report.json"])
    print(f"report written to {out}")
    return 0


def _returns_csv(out: SimOutput, path: Path) -> None:
    returns = out.returns.astype(np.int64)
    days = map(str, range(1, len(returns) + 1))
    if returns.ndim == 1:
        ingest.write_csv_table(path, ["day", "R"], days, [returns])
    else:
        ingest.write_csv_table(
            path, ["day", "R"] + list(out.tickers), days,
            [returns.sum(axis=1), *returns.T],
        )


def _diagnostics_csv(out: SimOutput, path: Path) -> None:
    keys = sorted(out.diagnostics)
    columns = [np.asarray(out.diagnostics[k], dtype=float) for k in keys]
    days = map(str, range(1, len(out.returns) + 1))
    ingest.write_csv_table(path, ["day"] + keys, days, columns)


def _run_one_seed(model: str, config_dict: dict, seed: int, out_dir: str) -> str:
    config = dataclasses.replace(ModelConfig.from_dict(config_dict), seed=seed)
    output = run_model(model, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _returns_csv(output, out / "returns.csv")
    _diagnostics_csv(output, out / "diagnostics.csv")
    if output.tickers is not None:
        panel = ingest.ReturnsPanel(
            dates=tuple(range(1, len(output.returns) + 1)),
            tickers=output.tickers,
            sector_of=output.sector_of,
            matrix=output.returns.astype(float),
        )
        ingest.save_returns_panel(panel, out / "panel.csv", out / "sectors.csv")
    return _sha256(out / "returns.csv")


def cmd_simulate(args, argv) -> int:
    for flag in ("ensemble", "jobs"):
        if getattr(args, flag) < 1:
            raise InputError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    config = load_config(args.config)
    if args.calibration:
        config = ModelConfig.from_fragment(read_json(args.calibration),
                                           base=config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    config.validate_for(args.model)
    # the members run seeds config.seed .. config.seed + ensemble - 1
    dataclasses.replace(config, seed=config.seed + args.ensemble - 1).validate()
    out = _out_dir(args, f"simulate-{args.model}")
    inputs = [args.config] + ([args.calibration] if args.calibration else [])

    if args.ensemble == 1:
        digest = _run_one_seed(args.model, config.to_dict(), config.seed, out)
        _write_manifest(
            out, argv, inputs, seed=config.seed, config=config.to_dict(),
            outputs=[out / "returns.csv"],
        )
        print(f"run written to {out} (returns sha256 {digest[:12]})")
        return 0

    seeds = [config.seed + i for i in range(args.ensemble)]
    jobs = min(args.jobs, args.ensemble)
    members = {s: str(out / f"seed_{s}") for s in seeds}
    if jobs == 1:
        digests = {
            s: _run_one_seed(args.model, config.to_dict(), s, members[s])
            for s in seeds
        }
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                s: pool.submit(
                    _run_one_seed, args.model, config.to_dict(), s, members[s]
                )
                for s in seeds
            }
            digests = {s: futures[s].result() for s in seeds}
    ensemble = {
        "model": args.model,
        "base_seed": config.seed,
        "members": [
            {"seed": s, "dir": f"seed_{s}", "returns_sha256": digests[s]}
            for s in sorted(digests)
        ],
    }
    ingest.write_json(out / "ensemble.json", ensemble)
    _write_manifest(
        out, argv, inputs, seed=config.seed, config=config.to_dict(),
        outputs=[out / "ensemble.json"],
    )
    print(f"{args.ensemble} runs written to {out}")
    return 0


# perfbench/tracing.py times the returns read by wrapping this name.
_read_returns_column = ingest.load_returns_column


def cmd_analyze(args, argv) -> int:
    out = _out_dir(args, f"analyze-{args.what}")
    if args.what == "lcurve":
        r = stats.normalize(_read_returns_column(args.infile))
        curve = stats.return_volatility_correlation(r, args.max_lag)
        if args.format == "json":
            stats.write_results_json(
                out / "lcurve.json",
                {"lags": curve.lags, "values": curve.values},
            )
        else:
            stats.write_curve_csv(curve, out / "lcurve.csv")
        results: dict = {"estimator": "L", "max_lag": args.max_lag}
        try:
            results["exponential_fit"] = stats.fit_exponential(curve)
        except NumericError as exc:
            results["exponential_fit_error"] = str(exc)
        stats.write_results_json(out / "lcurve_fit.json", results)
        inputs = [args.infile]
    elif args.what == "stats":
        raw = _read_returns_column(args.infile)
        r = stats.normalize(raw)
        acurve = stats.autocorrelation_abs(r, args.max_lag)
        stats.write_curve_csv(acurve, out / "acurve.csv")
        pooled = r.values
        results = {
            "n_days": len(pooled),
            "sigma": r.sigma,
            "mean": r.mean_removed,
            "hurst": stats.hurst_exponent(np.abs(pooled)),
            "tail_exponent": stats.tail_exponent(r, args.tail_fraction),
            "tail_fraction": args.tail_fraction,
            "kurtosis_excess": float(
                np.mean(pooled**4) / np.mean(pooled**2) ** 2 - 3.0
            ),
        }
        stats.write_results_json(out / "stats.json", results)
        inputs = [args.infile]
    else:  # spectrum
        panel = ingest.load_returns_panel(
            args.panel, args.sectors, forward_fill=args.forward_fill
        )
        system = spectral.eigen_decompose(spectral.cross_correlation(panel))
        report = spectral.mode_report(system)
        spectral.write_spectrum_json(out / "spectrum.json", system, report)
        spectral.write_eigenvector_csv(out / "eigenvectors.csv", system)
        lo, hi = spectral.marchenko_pastur_bounds(
            len(panel.tickers), len(panel.dates)
        )
        ingest.write_json(
            out / "bounds.json",
            {"lambda_minus": lo, "lambda_plus": hi,
             "n": len(panel.tickers), "T": len(panel.dates)},
        )
        inputs = [args.panel, args.sectors]
    _write_manifest(out, argv, inputs)
    print(f"analysis written to {out}")
    return 0


def cmd_pipeline(args, argv) -> int:
    spec = read_json(args.steps)
    steps = spec.get("steps") if isinstance(spec, dict) else None
    if not isinstance(steps, list) or not steps:
        raise InputError(f"{args.steps}: expected a non-empty 'steps' list")
    for i, step in enumerate(steps):
        if not isinstance(step, list) or not all(isinstance(s, str) for s in step):
            raise InputError(f"{args.steps}: step {i} is not a list of strings")
        if step[:1] == ["pipeline"]:
            raise InputError(f"{args.steps}: step {i} runs a pipeline; "
                             "pipelines do not nest")
        err = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                build_parser().parse_args(step)
        except SystemExit:
            # argparse's last line names the fault; --help writes none
            reason = err.getvalue().rstrip().rpartition("\n")[2] or "asks for help"
            raise InputError(f"{args.steps}: step {i}: {reason}") from None
    for i, step in enumerate(steps):
        print(f"[pipeline] step {i + 1}/{len(steps)}: {' '.join(step)}")
        code = main(step)
        if code != 0:
            # stdout: the failed step has written its one error line
            print(f"[pipeline] step {i + 1} failed with exit code {code}")
            return code
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdsim",
        description="Agent-based market simulation, calibration and analysis.",
        epilog=(
            "Input schemas: index.csv (date,close,volume), "
            "panel.csv (date,TICKER1,...), sectors.csv (ticker,sector_id), "
            "search.csv (week_start,ticker,volume). ISO-8601 dates, plain "
            "decimal numbers. HERDSIM_OUT sets the default output root."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="estimate model parameters from data")
    cal_sub = cal.add_subparsers(dest="what", required=True)
    asym = cal_sub.add_parser("asymmetry", help="alpha, delta_r and delta_R")
    asym.add_argument("--index", required=True, help="index.csv")
    asym.add_argument("--horizon", type=int, default=150,
                      help="max investment horizon M (default 150)")
    asym.add_argument("--gain", type=float, default=0.1,
                      help="weighted-return coefficient k (default 0.1)")
    asym.add_argument("--out")
    como = cal_sub.add_parser("comovement", help="H_M and per-sector H_j")
    como.add_argument("--panel", required=True, help="panel.csv of returns")
    como.add_argument("--sectors", required=True, help="sectors.csv")
    como.add_argument("--forward-fill", action="store_true",
                      help="zero-fill panel gaps of up to 2 days")
    como.add_argument("--out")
    info = cal_sub.add_parser("infoforce", help="tau, delta_F and a")
    info.add_argument("--search", required=True, help="search.csv of attention volumes")
    info.add_argument("--volumes", required=True,
                      help="weekly trading volumes, search.csv schema")
    info.add_argument("--index", required=True,
                      help="weekly index.csv for bull/bear labeling")
    info.add_argument("--tau", type=int, default=0,
                      help="window length; 0 = estimate from autocorrelation")
    info.add_argument("--out")

    sim = sub.add_parser("simulate", help="run a model")
    sim.add_argument("model", choices=["a", "b", "c", "d"])
    sim.add_argument("--config", required=True, help="JSON ModelConfig")
    sim.add_argument("--calibration",
                     help="calibration report.json overlaid on the config")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out")
    sim.add_argument("--ensemble", type=int, default=1,
                     help="number of seeds (base seed + i)")
    sim.add_argument("--jobs", type=int, default=1, help="parallel workers")

    ana = sub.add_parser("analyze", help="diagnostics on returns files")
    ana_sub = ana.add_subparsers(dest="what", required=True)
    lcu = ana_sub.add_parser("lcurve", help="return-volatility correlation")
    lcu.add_argument("--in", dest="infile", required=True)
    lcu.add_argument("--max-lag", type=int, default=40)
    lcu.add_argument("--format", choices=["csv", "json"], default="csv")
    lcu.add_argument("--out")
    st = ana_sub.add_parser("stats", help="hurst, tail exponent, kurtosis")
    st.add_argument("--in", dest="infile", required=True)
    st.add_argument("--max-lag", type=int, default=50)
    st.add_argument("--tail-fraction", type=float, default=0.05)
    st.add_argument("--out")
    spec = ana_sub.add_parser("spectrum", help="correlation-matrix eigenstructure")
    spec.add_argument("--panel", required=True)
    spec.add_argument("--sectors", required=True)
    spec.add_argument("--forward-fill", action="store_true",
                      help="zero-fill panel gaps of up to 2 days")
    spec.add_argument("--out")

    pipe = sub.add_parser("pipeline", help="run a JSON list of herdsim steps")
    pipe.add_argument("steps", help="JSON file with {'steps': [[...], ...]}")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "calibrate":
            return cmd_calibrate(args, argv)
        if args.command == "simulate":
            return cmd_simulate(args, argv)
        if args.command == "analyze":
            return cmd_analyze(args, argv)
        if args.command == "pipeline":
            return cmd_pipeline(args, argv)
        parser.error(f"unknown command {args.command}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except (IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except HerdsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
