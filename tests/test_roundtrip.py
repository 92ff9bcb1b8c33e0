"""Simulate, then calibrate: the estimators recover the parameters a model
was run with."""

import pytest

from herdsim.calibrate import trading_asymmetry
from herdsim.ingest import ReturnSeries
from herdsim.simcore import ModelConfig, run_model_a


@pytest.mark.parametrize("alpha", [0.9, 1.0, 1.1])
def test_model_a_alpha_round_trip(alpha):
    # Model A trades with probability 2p*alpha after a bull R', 2p*beta
    # after a bear one, so its P_trade trace is a volume whose bull/bear
    # ratio is alpha/beta exactly, provided the estimator classifies each
    # day by the same R' window the model used.
    out = run_model_a(ModelConfig(N=10_000, M=150, t_max=20_150, warmup=150,
                                  seed=3, alpha=alpha))
    series = ReturnSeries(dates=tuple(range(len(out.returns))),
                          returns=out.returns,
                          volume=out.diagnostics["P_trade"])
    est = trading_asymmetry(series, m=150, k=0.1)
    assert est.alpha == pytest.approx(alpha, abs=1e-12)
