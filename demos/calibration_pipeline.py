"""End-to-end calibration: market files in, model parameters out.

Builds a synthetic daily index CSV whose trade volumes are deliberately
heavier after bullish weighted returns and whose bear-day moves are
slightly larger than bull-day ones, then runs the calibration chain the
CLI exposes as `herdsim calibrate asymmetry`:

    log returns -> weighted-return regime labels -> volume ratio -> alpha
    normalized returns + volumes -> herding shift delta_r -> delta_R

The resulting report is exactly the JSON fragment `herdsim simulate`
accepts via --calibration; here the same overlay is done through the API
and a short run confirms the calibrated regime produces the leverage-
style negative return-volatility correlation.
"""

import json
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from herdsim.calibrate import asymmetry_report
from herdsim.ingest import IndexSeries, load_index_series, save_index_series
from herdsim.simcore import ModelConfig, run_model_a, weighted_returns
from herdsim.stats import normalize, return_volatility_correlation

rng = np.random.default_rng(3)

# --- build a synthetic index with asymmetric trading baked in -----------
n = 1200
m = 150
returns = rng.normal(0, 0.012, n)
# bear-day magnitudes 10% larger: creates a positive herding shift
returns[returns < 0] *= 1.10

volumes = np.full(n + 1, 1e5)
# R'(t) for days t = m-1 .. n-2; heavier trading the day after a bullish one
rprime = weighted_returns(returns[: n - 1], m, 0.1)
volumes[m:n][rprime > 0] = 1.06e5

closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
days = []
d = date(2016, 1, 4)
while len(days) < n + 1:
    if d.weekday() < 5:
        days.append(d)
    d += timedelta(days=1)

with tempfile.TemporaryDirectory() as tmp:
    index_path = Path(tmp) / "index.csv"
    save_index_series(
        IndexSeries(dates=tuple(days), close=closes, volume=volumes),
        index_path,
    )
    print(f"wrote synthetic index: {n + 1} rows -> {index_path.name}")

    # --- calibrate ------------------------------------------------------
    series = load_index_series(index_path)
    est = asymmetry_report(series, m=m, k=0.1)

report, _ = est.report()
print("\ncalibration report (the simulate --calibration fragment):")
print(json.dumps(report, indent=2))

# --- simulate with the calibrated parameters ----------------------------
base = ModelConfig(N=10_000, M=150, t_max=20_150, warmup=150, seed=0)
cfg = ModelConfig.from_fragment(report, base)
print(f"\nrunning the herding model at (alpha, delta_R) = "
      f"({cfg.alpha:.3f}, {cfg.delta_R}) ...")
out = run_model_a(cfg)
lcurve = return_volatility_correlation(normalize(out.returns), 10)
print(f"L(1..5) = {np.array2string(lcurve[:5], precision=4)}")
sign = "negative (leverage)" if lcurve[:5].mean() < 0 else "positive (anti-leverage)"
print(f"short-lag return-volatility correlation is {sign}, "
      "as the positive delta_R prescribes")
