"""Simulate, then calibrate: the estimators recover the parameters a model
was run with, or, where one does not (model A's delta_R), the test pins
what it reads."""

import pytest

from herdsim.calibrate import herding_offset_from_shift, herding_shift, trading_asymmetry
from herdsim.simcore import ModelConfig, run_model_a
from herdsim.stats import normalize

#: Bound on |delta_r| of model A whatever its delta_R.  Over seeds 0-9 at
#: delta_R = -2, 0, 3 and 10, the 40 readings lay in [-0.0120, +0.0093],
#: with mean -0.0007 and standard deviation 0.0063; 0.015 is 2.4 of them.
SHIFT_BOUND = 0.015


@pytest.mark.parametrize("alpha", [0.9, 1.0, 1.1])
def test_model_a_alpha_round_trip(alpha):
    # Model A trades with probability 2p*alpha after a bull R', 2p*beta
    # after a bear one, so its P_trade trace is a volume whose bull/bear
    # ratio is alpha/beta exactly, provided the estimator classifies each
    # day by the same R' window the model used.
    out = run_model_a(ModelConfig(N=10_000, M=150, t_max=20_150, warmup=150,
                                  seed=3, alpha=alpha))
    estimate, _ = trading_asymmetry(out.returns, out.diagnostics["P_trade"],
                                    m=150, k=0.1)
    assert estimate == pytest.approx(alpha, abs=1e-12)


@pytest.mark.parametrize("delta_R", [-2, 0, 3, 10])
def test_model_a_delta_R_does_not_round_trip(delta_R):
    # herding_shift labels a day by the sign of its own return, while model
    # A sizes its clusters by |R' - delta_R|, R' being the trend before the
    # day; so delta_r stays within the seed spread of 0, and the offset it
    # maps to is 0 or 1 for every delta_R
    for seed in (0, 1, 2):
        out = run_model_a(ModelConfig(N=10_000, M=150, t_max=20_150, warmup=150,
                                      seed=seed, delta_R=delta_R))
        shift = herding_shift(normalize(out.returns), out.diagnostics["P_trade"])
        assert abs(shift) <= SHIFT_BOUND
        assert herding_offset_from_shift(shift) in (0, 1)
