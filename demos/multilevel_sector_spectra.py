"""Sector structure from multi-level herding.

Simulates 50 stocks in 5 sectors with the NYSE co-movement table
(H_M = 0.363, H_j from the published estimates, group trading
probability 0.363).  Agents herd in three stages -- inside their stock,
inside their sector, across the market -- and the resulting equal-time
correlation matrix shows the textbook random-matrix picture:

  * a dominant market mode lambda_0 far above the Marchenko-Pastur edge,
    with a nearly uniform eigenvector (participation ratio ~ 1);
  * further large eigenvalues whose eigenvectors concentrate on single
    sectors;
  * a compressed bulk of small eigenvalues (the market mode soaks up most
    of the trace, pushing the remainder below the pure-noise band).

Outputs: eigenvalue list + mode report JSON and the leading eigenvector
components per ticker (sector-blocked, ready to plot).
"""

from pathlib import Path

import numpy as np

from herdsim.simcore import ModelConfig, run_model_c
from herdsim.spectral import (
    cross_correlation,
    eigen_decompose,
    marchenko_pastur_bounds,
    mode_report,
    write_eigenvector_csv,
    write_spectrum_json,
)

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

cfg = ModelConfig(
    N=10_000, M=150, n=50, n_sec=5,
    H_M=0.363, H_j=(0.491, 0.414, 0.438, 0.431, 0.546), P_group=0.363,
    t_max=2650, warmup=150, seed=0,
)
print("simulating 50 stocks x 2500 days with three-level herding ...")
out = run_model_c(cfg)

panel = out.panel()
lam, vectors = eigen_decompose(cross_correlation(panel))
report = mode_report(vectors, panel.sectors)
lo, hi = marchenko_pastur_bounds(cfg.n, out.returns.shape[0])

print(f"\nMarchenko-Pastur pure-noise band: [{lo:.3f}, {hi:.3f}]")
print(f"largest eigenvalues: {np.array2string(lam[:5], precision=2)}")
print(f"eigenvalues above the band: {np.sum(lam > hi)}; "
      f"remaining bulk spans [{lam[lam <= hi].max():.2f}, {lam.min():.2f}]")
print(f"market mode: lambda_0 = {lam[0]:.1f}, participation ratio "
      f"{report['participation_ratio'][0]:.3f} (uniform = 1)")

for mode in (1, 2):
    masses = report["sector_mass"][mode]
    order = np.argsort(masses)[::-1]
    top = report["sector_ids"][order[0]]
    print(f"mode {mode}: lambda = {lam[mode]:.2f}, dominant sector {top} "
          f"(mass {masses[order[0]]:.2f} vs runner-up {masses[order[1]]:.2f})")

write_spectrum_json(OUT / "spectrum.json", lam, report)
write_eigenvector_csv(OUT / "eigenvectors.csv", vectors, panel.tickers,
                      panel.sectors)
print(f"\nspectrum.json and eigenvectors.csv written to {OUT}/")
