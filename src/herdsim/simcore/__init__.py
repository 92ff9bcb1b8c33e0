"""Agent-based simulation engine: shared machinery and the model drivers."""

from .config import DEFAULT_TRADE_PROB, HORIZON_DECAY, ModelConfig, load_config
from .machinery import (
    SimOutput,
    horizon_weights,
    independent_day_return,
    round_count,
    rprime_weights,
    sample_aggregate_return,
    weighted_returns,
)
from .multi_stock import mgroup_slots, run_model_c
from .single_stock import run_model_a, run_model_b, run_model_d

RUNNERS = {
    "a": run_model_a,
    "b": run_model_b,
    "c": run_model_c,
    "d": run_model_d,
}


def run_model(model: str, config: ModelConfig) -> SimOutput:
    """Dispatch to the requested model driver ('a', 'b', 'c' or 'd')."""
    from ..errors import ConfigError

    try:
        runner = RUNNERS[model.lower()]
    except KeyError:
        raise ConfigError(f"unknown model {model!r}") from None
    return runner(config)


__all__ = [
    "DEFAULT_TRADE_PROB",
    "HORIZON_DECAY",
    "ModelConfig",
    "load_config",
    "SimOutput",
    "horizon_weights",
    "independent_day_return",
    "round_count",
    "rprime_weights",
    "sample_aggregate_return",
    "weighted_returns",
    "mgroup_slots",
    "run_model",
    "run_model_a",
    "run_model_b",
    "run_model_c",
    "run_model_d",
    "RUNNERS",
]
