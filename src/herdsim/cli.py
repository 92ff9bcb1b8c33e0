"""Command-line interface: calibrate, simulate, analyze.

Every command writes its results under an output directory (``--out``, or
``$HERDSIM_OUT/<command>-<subcommand or model>``) together with a run
manifest that records the command line, config hash, seed, tool version,
numpy build and input file digests.  ``main`` makes the output directory,
with its parents, before the command runs, and a failed command removes
every directory it made; a directory that existed before is never removed.
Exit codes: 0 success, 1 runtime/numeric failure (out of memory, a dead
``--jobs`` worker and an I/O error that names no file, such as a full
disk, included), 2 input or validation failure.

Simulation output schema: ``returns.csv`` with columns ``day,R``,
``diagnostics.csv`` with per-day traces, and for model c additionally
``panel.csv`` with each stock's returns and ``sectors.csv`` with their
sectors, ready for ``analyze spectrum``.  Rerunning with the same config and seed reproduces
``returns.csv`` byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, calibrate, ingest, spectral, stats
from .errors import InputError, NumericError
from .simcore import ModelConfig, run_model
from .simcore.config import read_json
from .simcore.machinery import SimOutput

REPORT_KEYS = (
    "alpha", "beta", "delta_r", "delta_R", "H_M", "H_j", "tau", "delta_F", "a",
)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _out_dir(args) -> Path:
    """The output directory's path: --out, or <command>-<subcommand or
    model> under $HERDSIM_OUT.  `main` makes it before the command runs."""
    if args.out:
        return Path(args.out)
    name = f"{args.command}-{vars(args).get('what') or args.model}"
    return Path(os.environ.get("HERDSIM_OUT", ".")) / name


def _numpy_build() -> dict:
    """The numpy of this run: its version, the name and version of the BLAS
    it was built with, and OPENBLAS_NUM_THREADS; null where not known."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):  # no build information
        blas = None
    return {"version": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _write_manifest(out: Path, argv, inputs, seed=None, config=None, outputs=()):
    manifest = {
        "command": ["herdsim"] + list(argv),
        "version": __version__,
        "numpy": _numpy_build(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()
        if config is not None
        else None,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {Path(p).relative_to(out).as_posix(): _sha256(p)
                    for p in outputs},
    }
    ingest.write_json(out / "manifest.json", manifest)


def _write_report(out: Path, values: dict, table_lines: list[str]) -> None:
    report = {key: values.get(key) for key in REPORT_KEYS}
    report.update({k: v for k, v in values.items() if k not in REPORT_KEYS})
    ingest.write_json(out / "report.json", report)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(table_lines) + "\n")


def _load_panel(args):
    """The returns panel of --panel and --sectors, with the two paths as
    the command's inputs."""
    panel = ingest.load_returns_panel(args.panel, args.sectors,
                                      forward_fill=args.forward_fill)
    return panel, [args.panel, args.sectors]


def cmd_calibrate(args, out: Path) -> tuple[dict, str]:
    if args.what == "asymmetry":
        # the report's M must be a value simulate --calibration accepts
        ModelConfig(M=args.horizon).validate()
        values, lines = calibrate.asymmetry_report(
            ingest.load_index_series(args.index), m=args.horizon
        ).report()
        values.update(M=args.horizon)
        inputs = [args.index]
    elif args.what == "comovement":
        panel, inputs = _load_panel(args)
        values, lines = calibrate.comovement(panel).report()
    else:  # infoforce
        values, lines = calibrate.infoforce_report(
            ingest.load_search_series(args.search),
            ingest.load_search_series(args.volumes),
            ingest.load_index_series(args.index),
            tau=args.tau,
        )
        inputs = [args.search, args.volumes, args.index]
    _write_report(out, values, lines)
    return (dict(inputs=inputs, outputs=[out / "report.json", out / "report.txt"]),
            f"report written to {out}")


def _returns_csv(out: SimOutput, path: Path) -> None:
    # R of a multi-stock run is the sum over its stocks, whose own returns
    # go to panel.csv
    days = len(out.returns)
    R = out.returns.astype(np.int64, copy=False).reshape(days, -1).sum(axis=1)
    ingest.write_csv_table(path, ["day", "R"], map(str, range(1, days + 1)), [R])


def _diagnostics_csv(out: SimOutput, path: Path) -> None:
    keys = sorted(out.diagnostics)
    columns = [np.asarray(out.diagnostics[k], dtype=float) for k in keys]
    days = map(str, range(1, len(out.returns) + 1))
    ingest.write_csv_table(path, ["day"] + keys, days, columns)


def _run_one_seed(model: str, config: ModelConfig, out: Path):
    """Simulate one seed into `out`: the sha256 of its returns.csv and the
    paths of every file written."""
    output = run_model(model, config)
    out.mkdir(exist_ok=True)  # an ensemble member's seed_<n>/
    written = [out / "returns.csv", out / "diagnostics.csv"]
    _returns_csv(output, written[0])
    _diagnostics_csv(output, written[1])
    if output.tickers is not None:
        written += [out / "panel.csv", out / "sectors.csv"]
        ingest.save_returns_panel(output.panel(), *written[2:])
    return _sha256(written[0]), written


def cmd_simulate(args, out: Path) -> tuple[dict, str]:
    for flag in ("ensemble", "jobs"):
        if getattr(args, flag) < 1:
            raise InputError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    config = ModelConfig.from_dict(read_json(args.config))
    if args.calibration:
        config = ModelConfig.from_fragment(read_json(args.calibration),
                                           base=config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    config.validate_for(args.model)
    # the last seed must stay within the seed bound
    dataclasses.replace(config, seed=config.seed + args.ensemble - 1).validate()
    members = [dataclasses.replace(config, seed=config.seed + i)
               for i in range(args.ensemble)]
    inputs = [args.config] + ([args.calibration] if args.calibration else [])
    dirs = [out] if len(members) == 1 else [out / f"seed_{m.seed}" for m in members]
    # another run's entries would stay beside this run's, in no manifest
    files = "returns.csv diagnostics.csv panel.csv sectors.csv ensemble.json".split()
    ours = files[:4 if args.model == "c" else 2] if len(members) == 1 else files[4:]
    stale = [p.name + "/" for p in sorted(out.glob("seed_[0-9]*"))
             if p.is_dir() and p not in dirs]
    stale += [name for name in files if name not in ours and (out / name).exists()]
    if stale:
        raise InputError(f"{out} holds {', '.join(stale)} of another run; "
                         "give this run another --out")

    jobs = min(args.jobs, len(members))
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        digests, written = zip(*(pool.map if pool else map)(
            _run_one_seed, repeat(args.model), members, dirs))
    outputs = [path for paths in written for path in paths]
    if len(members) == 1:
        done = f"run written to {out} (returns sha256 {digests[0][:12]})"
    else:
        outputs.append(out / "ensemble.json")
        ingest.write_json(outputs[-1], {
            "model": args.model,
            "base_seed": config.seed,
            "members": [
                {"seed": m.seed, "dir": d.name, "returns_sha256": h}
                for m, d, h in zip(members, dirs, digests)
            ],
        })
        done = f"{len(members)} runs written to {out}"
    return dict(inputs=inputs, seed=config.seed, config=dataclasses.asdict(config),
                outputs=outputs), done


# perfbench/tracing.py times the returns read by wrapping this name.
_read_returns_column = ingest.load_returns_column


def cmd_analyze(args, out: Path) -> tuple[dict, str]:
    if args.what in ("lcurve", "stats"):  # one returns file
        raw = _read_returns_column(args.infile)
        r = stats.normalize(raw)
        if args.what == "lcurve":
            curve = stats.return_volatility_correlation(r, args.max_lag)
            results: dict = {"estimator": "L", "max_lag": args.max_lag}
            try:
                results["exponential_fit"] = stats.fit_exponential(curve)
            except NumericError as exc:
                results["exponential_fit_error"] = str(exc)
            names = "lcurve.csv", "lcurve_fit.json"
        else:  # stats
            curve = stats.autocorrelation_abs(r, args.max_lag)
            results = {
                "n_days": len(r),
                "sigma": float(raw.std()),
                "mean": float(raw.mean()),
                "hurst": stats.hurst_exponent(np.abs(r)),
                "tail_exponent": stats.tail_exponent(r, args.tail_fraction),
                "tail_fraction": args.tail_fraction,
                "kurtosis_excess": float(np.mean(r**4) / np.mean(r**2) ** 2 - 3.0),
            }
            names = "acurve.csv", "stats.json"
        outputs = [out / name for name in names]
        stats.write_curve_csv(curve, outputs[0])
        stats.write_results_json(outputs[1], results)
        inputs = [args.infile]
    else:  # spectrum
        panel, inputs = _load_panel(args)
        lam, vectors = spectral.eigen_decompose(spectral.cross_correlation(panel))
        report = spectral.mode_report(vectors, panel.sectors)
        lo, hi = spectral.marchenko_pastur_bounds(
            len(panel.tickers), len(panel.dates)
        )
        outputs = [out / "spectrum.json", out / "eigenvectors.csv",
                   out / "bounds.json"]
        spectral.write_spectrum_json(outputs[0], lam, report)
        spectral.write_eigenvector_csv(outputs[1], vectors, panel.tickers,
                                       panel.sectors)
        ingest.write_json(
            outputs[2],
            {"lambda_minus": lo, "lambda_plus": hi,
             "n": len(panel.tickers), "T": len(panel.dates)},
        )
    return dict(inputs=inputs, outputs=outputs), f"analysis written to {out}"


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
    cal.set_defaults(run=cmd_calibrate)
    cal_sub = cal.add_subparsers(dest="what", required=True)
    asym = cal_sub.add_parser("asymmetry", help="alpha, delta_r and delta_R")
    asym.add_argument("--index", required=True, help="index.csv")
    asym.add_argument("--horizon", type=int, default=150,
                      help="max investment horizon M (default 150)")
    asym.add_argument("--out")
    como = cal_sub.add_parser("comovement", help="H_M and per-sector H_j")
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
    sim.set_defaults(run=cmd_simulate)
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
    ana.set_defaults(run=cmd_analyze)
    ana_sub = ana.add_subparsers(dest="what", required=True)
    lcu = ana_sub.add_parser("lcurve", help="return-volatility correlation")
    lcu.add_argument("--in", dest="infile", required=True)
    lcu.add_argument("--max-lag", type=int, default=40)
    lcu.add_argument("--out")
    st = ana_sub.add_parser("stats", help="hurst, tail exponent, kurtosis")
    st.add_argument("--in", dest="infile", required=True)
    st.add_argument("--max-lag", type=int, default=50)
    st.add_argument("--tail-fraction", type=float, default=0.05)
    st.add_argument("--out")
    spec = ana_sub.add_parser("spectrum", help="correlation-matrix eigenstructure")
    for panel_input in (como, spec):
        panel_input.add_argument("--panel", required=True, help="panel.csv of returns")
        panel_input.add_argument("--sectors", required=True, help="sectors.csv")
        panel_input.add_argument("--forward-fill", action="store_true",
                                 help="zero-fill panel gaps of up to 2 days")
        panel_input.add_argument("--out")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    out = _out_dir(args)
    # the topmost directory of --out that is missing: the run makes it
    made = next((p for p in [*reversed(out.parents), out]
                 if not os.path.exists(p)), None)  # unlike Path.exists, never raises
    try:
        try:  # each cmd_* returns its manifest fields and its result line
            out.mkdir(parents=True, exist_ok=True)
            fields, done = args.run(args, out)
            _write_manifest(out, argv, **fields)
        except BaseException:
            if made:  # a failed run leaves no directory it made
                shutil.rmtree(made, ignore_errors=True)
            raise
        print(done)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # no file to blame, as for a full disk
            print(f"error: {exc.strerror or exc}", file=sys.stderr)
            return 1
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    # BrokenProcessPool: a --jobs worker died, e.g. killed for memory
    except (NumericError, BrokenProcessPool) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
