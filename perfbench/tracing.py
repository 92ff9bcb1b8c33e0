"""Spans and counts around the calls into each herdsim module.

The tracer replaces module attributes that the program resolves at call
time (for example `herdsim.ingest.load_returns_panel`, which `cli` calls as
`ingest.load_returns_panel`) with wrappers that record a span per call:
name, start, end, parent span, iteration id and the time covered by child
spans. Counts (bytes written, days simulated, windows kept) are taken at
the same boundaries. No program source is changed; `uninstall` restores
every attribute.

What the spans cannot see is listed in BLIND_SPOTS.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from time import perf_counter

MODULES = ("single_stock", "multi_stock", "machinery", "cli", "ingest",
           "calibrate", "stats", "spectral")

BLIND_SPOTS = (
    # the tracer switches itself off in forked children
    "calls inside --jobs 2 pool children: those members show only as the "
    "parent's cli.main span",
    "calls a module makes through names it imported itself (calibrate's "
    "stats.normalize, multi_stock's _spread_sample): they count as the "
    "caller's self time",
    "interpreter start-up and imports: setup_s measures them",
)

# span fields
NAME, START, END, PARENT, ITERATION, CHILD_S, RAISED = range(7)


class Tracer:
    """Records spans in memory; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], float] = {}
        # (iteration, name) -> [calls, seconds, raised] of leaf calls
        self.leaves: dict[tuple[int, str], list] = {}
        self.iteration = -1
        self.enabled = True
        self._saved: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def count(self, name: str, amount: float) -> None:
        key = (self.iteration, name)
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span `name`; `after(args, result)` may count."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, self.iteration, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += end - span[START]
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_leaf(self, name: str, fn):
        """Like `wrap`, for calls made thousands of times per iteration that
        call no other traced function: they add to per-iteration totals
        instead of recording a span each."""
        spans, stack, leaves = self.spans, self.stack, self.leaves

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            total = leaves.setdefault((self.iteration, name), [0, 0.0, 0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                total[2] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                total[0] += 1
                total[1] += elapsed
                if stack:
                    spans[stack[-1]][CHILD_S] += elapsed

        return traced

    def patch(self, owner, attr: str, name: str, after=None, leaf=False) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        traced = self.wrap_leaf(name, original) if leaf else self.wrap(
            name, original, after)
        self._set(owner, attr, traced)
        self._saved.append((owner, attr, original))

    @staticmethod
    def _set(owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        from herdsim import calibrate, cli, ingest, simcore, spectral, stats
        from herdsim.simcore import single_stock

        def written_bytes(name):
            return lambda args, result: self.count(
                f"{name}.bytes", os.path.getsize(args[1]))

        def sim_days(name):
            def after(args, result):
                self.count(f"{name}.days", len(result.returns))
                self.count(f"{name}.stock_days", result.returns.size)
            return after

        def load_panel_bytes(args, result):
            self.count("ingest.load_panel.bytes",
                       os.path.getsize(args[0]) + os.path.getsize(args[1]))

        def save_panel_bytes(args, result):
            self.count("ingest.save_panel.bytes",
                       sum(os.path.getsize(p) for p in args[1:3] if p is not None))

        def comovement_rows(args, result):
            self.count("calibrate.comovement.rows", args[0].matrix.shape[0])

        def infoforce_windows(args, result):
            self.count("calibrate.infoforce.kept", len(result.forces))
            self.count("calibrate.infoforce.tried",
                       len(result.forces) + result.skipped)

        def corr_flop(args, result):
            t, n = args[0].matrix.shape
            self.count("spectral.corr.flop", 2.0 * t * n * n)

        for model in ("a", "b", "d"):
            self.patch(simcore.RUNNERS, model, f"single_stock.{model}",
                       sim_days(f"single_stock.{model}"))
        self.patch(simcore.RUNNERS, "c", "multi_stock.c", sim_days("multi_stock.c"))
        self.patch(single_stock, "sample_aggregate_return", "machinery.sampler",
                   leaf=True)
        self.patch(single_stock, "independent_day_return", "machinery.independent",
                   leaf=True)

        self.patch(cli, "_returns_csv", "cli.returns_csv",
                   written_bytes("cli.returns_csv"))
        self.patch(cli, "_diagnostics_csv", "cli.diagnostics_csv",
                   written_bytes("cli.diagnostics_csv"))
        self.patch(cli, "_write_manifest", "cli.manifest")
        self.patch(cli, "_read_returns_column", "cli.read_returns")

        self.patch(ingest, "load_returns_panel", "ingest.load_panel", load_panel_bytes)
        self.patch(ingest, "save_returns_panel", "ingest.save_panel", save_panel_bytes)
        self.patch(ingest, "load_index_series", "ingest.load_index")
        self.patch(ingest, "load_search_series", "ingest.load_search")

        self.patch(calibrate, "comovement", "calibrate.comovement", comovement_rows)
        self.patch(calibrate, "asymmetry_report", "calibrate.asymmetry")
        self.patch(calibrate, "correlating_time", "calibrate.infoforce.tau")
        self.patch(calibrate, "info_states", "calibrate.infoforce.states")
        self.patch(calibrate, "info_driving_force", "calibrate.infoforce.force",
                   infoforce_windows)
        self.patch(calibrate, "info_force_asymmetry", "calibrate.infoforce.asymmetry")

        for attr, name in (("normalize", "stats.normalize"),
                           ("autocorrelation_abs", "stats.acurve"),
                           ("return_volatility_correlation", "stats.lcurve"),
                           ("hurst_exponent", "stats.dfa"),
                           ("tail_exponent", "stats.hill"),
                           ("fit_exponential", "stats.fit"),
                           ("write_curve_csv", "stats.write"),
                           ("write_results_json", "stats.write")):
            self.patch(stats, attr, name)

        self.patch(spectral, "cross_correlation", "spectral.corr", corr_flop)
        self.patch(spectral, "eigen_decompose", "spectral.eigh")
        self.patch(spectral, "mode_report", "spectral.mode_report")
        self.patch(spectral, "marchenko_pastur_bounds", "spectral.mp_bounds")
        self.patch(spectral, "write_spectrum_json", "spectral.write")
        self.patch(spectral, "write_eigenvector_csv", "spectral.write")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            self._set(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        """Every span as CSV, then one row per leaf total (no start or end)."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,iteration,self_s,raised,calls\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[ITERATION]},{s[END] - s[START] - s[CHILD_S]!r},"
                         f"{int(s[RAISED])},1\n")
            for (iteration, name), (calls, seconds, raised) in self.leaves.items():
                fh.write(f"{name},,,-1,{iteration},{seconds!r},{raised},{calls}\n")


# ------------------------------------------------------- per-layer metrics

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {}
for _m in ("a", "b", "d"):
    PER_LAYER_UNITS[f"single_stock.{_m}.us_per_day"] = "us/day"
    PER_LAYER_UNITS[f"single_stock.{_m}.self_us_per_day"] = "us/day"
PER_LAYER_UNITS.update({
    "machinery.sampler.calls": "count",
    "machinery.sampler.us_per_call": "us",
    "machinery.independent.calls": "count",
    "machinery.independent.us_per_call": "us",
    "multi_stock.c.us_per_day": "us/day",
    "multi_stock.c.us_per_stock_day": "us/day",
    "cli.returns_csv.s": "s",
    "cli.returns_csv.bytes": "bytes",
    "cli.diagnostics_csv.s": "s",
    "cli.diagnostics_csv.bytes": "bytes",
    "cli.manifest.s": "s",
    "cli.read_returns.s": "s",
    "cli.self_s": "s",
    "cli.ensemble.pool_overhead_s": "s",
    "ingest.load_panel.s": "s",
    "ingest.load_panel.mb_per_s": "MB/s",
    "ingest.save_panel.s": "s",
    "ingest.save_panel.mb_per_s": "MB/s",
    "ingest.load_index.s": "s",
    "ingest.load_search.s": "s",
    "calibrate.comovement.s": "s",
    "calibrate.comovement.us_per_row": "us",
    "calibrate.asymmetry.s": "s",
    "calibrate.infoforce.s": "s",
    "calibrate.infoforce.useful_window_frac": "ratio",
    "stats.dfa.s": "s",
    "stats.acurve.s": "s",
    "stats.lcurve.s": "s",
    "stats.hill.s": "s",
    "stats.fit.s": "s",
    "spectral.corr.s": "s",
    "spectral.corr.gflop_computed": "GFLOP",
    "spectral.eigh.s": "s",
    "spectral.mode_report.s": "s",
    "spectral.write.s": "s",
})
for _m in MODULES:
    if _m != "cli":
        PER_LAYER_UNITS[f"{_m}.self_s"] = "s"
for _m in MODULES:
    PER_LAYER_UNITS[f"{_m}.errors"] = "count"
PER_LAYER_UNITS["trace.overhead_s"] = "s"
PER_LAYER_UNITS["trace.overhead_frac"] = "ratio"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iteration_layers(tracer: Tracer, iteration: int) -> dict[str, float]:
    """Per-layer values of one traced iteration (0 for layers not called)."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors = dict.fromkeys(MODULES, 0)
    module_self = dict.fromkeys(MODULES, 0.0)
    for s in tracer.spans:
        if s[ITERATION] != iteration:
            continue
        name, dur = s[NAME], s[END] - s[START]
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - s[CHILD_S]
        calls[name] = calls.get(name, 0) + 1
        module = name.split(".")[0]
        errors[module] += s[RAISED]
        module_self[module] += dur - s[CHILD_S]
    for (it, name), (n, seconds, raised) in tracer.leaves.items():
        if it != iteration:
            continue
        total[name] = own[name] = seconds
        calls[name] = n
        module = name.split(".")[0]
        errors[module] += raised
        module_self[module] += seconds

    def count(key: str) -> float:
        return tracer.counts.get((iteration, key), 0.0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    v: dict[str, float] = {}
    for m in ("a", "b", "d"):
        days = count(f"single_stock.{m}.days")
        v[f"single_stock.{m}.us_per_day"] = _ratio(1e6 * t(f"single_stock.{m}"), days)
        v[f"single_stock.{m}.self_us_per_day"] = _ratio(
            1e6 * own.get(f"single_stock.{m}", 0.0), days)
    for key, name in (("sampler", "machinery.sampler"),
                      ("independent", "machinery.independent")):
        v[f"machinery.{key}.calls"] = calls.get(name, 0)
        v[f"machinery.{key}.us_per_call"] = _ratio(1e6 * t(name), calls.get(name, 0))
    v["multi_stock.c.us_per_day"] = _ratio(1e6 * t("multi_stock.c"),
                                           count("multi_stock.c.days"))
    v["multi_stock.c.us_per_stock_day"] = _ratio(1e6 * t("multi_stock.c"),
                                                 count("multi_stock.c.stock_days"))
    for name in ("cli.returns_csv", "cli.diagnostics_csv"):
        v[f"{name}.s"] = t(name)
        v[f"{name}.bytes"] = count(f"{name}.bytes")
    v["cli.manifest.s"] = t("cli.manifest")
    v["cli.read_returns.s"] = t("cli.read_returns")
    v["cli.self_s"] = own.get("cli.main", 0.0)
    v["cli.ensemble.pool_overhead_s"] = 0.0  # filled in from untraced runs
    for name in ("ingest.load_panel", "ingest.save_panel"):
        v[f"{name}.s"] = t(name)
        v[f"{name}.mb_per_s"] = _ratio(count(f"{name}.bytes") / 1e6, t(name))
    v["ingest.load_index.s"] = t("ingest.load_index")
    v["ingest.load_search.s"] = t("ingest.load_search")
    v["calibrate.comovement.s"] = t("calibrate.comovement")
    v["calibrate.comovement.us_per_row"] = _ratio(
        1e6 * t("calibrate.comovement"), count("calibrate.comovement.rows"))
    v["calibrate.asymmetry.s"] = t("calibrate.asymmetry")
    v["calibrate.infoforce.s"] = sum(
        d for n, d in total.items() if n.startswith("calibrate.infoforce."))
    v["calibrate.infoforce.useful_window_frac"] = _ratio(
        count("calibrate.infoforce.kept"), count("calibrate.infoforce.tried"))
    for name in ("dfa", "acurve", "lcurve", "hill", "fit"):
        v[f"stats.{name}.s"] = t(f"stats.{name}")
    v["spectral.corr.s"] = t("spectral.corr")
    v["spectral.corr.gflop_computed"] = count("spectral.corr.flop") / 1e9
    for name in ("eigh", "mode_report", "write"):
        v[f"spectral.{name}.s"] = t(f"spectral.{name}")
    for m in MODULES:
        if m != "cli":
            v[f"{m}.self_s"] = module_self[m]
        v[f"{m}.errors"] = errors[m]
    return v


def per_layer(tracer: Tracer, traced: list[int]) -> dict[str, float]:
    """Median over the traced iterations of each per-layer value."""
    rows = [iteration_layers(tracer, i) for i in traced]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
