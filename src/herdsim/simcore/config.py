"""Model configuration record shared by the four simulation drivers."""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass

from ..errors import ConfigError, InputError

#: Per-agent one-sided daily trading probability (empirical estimate);
#: every model pins the time average of P_trade to 2*p.
DEFAULT_TRADE_PROB = 0.0154

#: Exponent of the power-law distribution of investment horizons.
HORIZON_DECAY = 1.12

#: Default proportionality coefficient of the weighted return, per model.
#: Keeps the aggregate-return scale in the regime that reproduces the
#: reported stylized facts (sigma_R of a few dozen agents for the
#: single-stock models, structured multi-level herding for model C).
DEFAULT_K = {"a": 0.1, "b": 0.1, "c": 0.25, "d": 0.1}

#: Largest magnitude of an integer field: keeps every count (agents, days,
#: stocks, ...) a C long on every platform, as numpy's samplers need.
INT_FIELD_MAX = 2**31 - 1

#: Largest S-group count of a sector and M-group slot count of a model C
#: day: numpy's hypergeometric sampler, which spreads the groups of one
#: level over those of the next, takes counts below 10**9 only.
GROUP_COUNT_MAX = 10**9 - 1


@dataclass(frozen=True)
class ModelConfig:
    """Parameters for the simulation drivers.

    A single record covers all four models; every driver validates the
    subset it actually consumes.  Fields:

    N        agent count
    M        maximum investment horizon in days
    p        per-agent one-sided daily trading probability
    k        proportionality coefficient of the weighted return; None picks
             the per-model default from DEFAULT_K.  Model D reads only the
             sign of R', so k does not change its run
    alpha    trading asymmetry in bull markets (beta = 2 - alpha implied)
    delta_R  integer herding shift between bull and bear markets
    c        volatility-preference degree (model B); 0 disables it
    n        number of stocks (model C)
    n_sec    number of sectors (model C); must divide n
    H_M      market co-movement degree (model C)
    H_j      per-sector co-movement degrees (model C); each must exceed H_M
    P_group  buy (= sell) probability of a trading group (model C)
    tau      persistence of the information state, in steps (model D)
    a        asymmetric coefficient of the information force (model D)
    f        dominating fraction of agents sharing the market state (model D)
    b1       decay rate of the exponential force distribution (model D)
    seed     RNG seed
    t_max    total simulated days, warmup included
    warmup   bootstrap days excluded from the output; defaults to M

    Every integer field lies within +-INT_FIELD_MAX, and every other
    numeric field is a finite float.
    """

    N: int = 10_000
    M: int = 150
    p: float = DEFAULT_TRADE_PROB
    k: float | None = None
    alpha: float = 1.0
    delta_R: int = 0
    c: float = 0.0
    n: int = 1
    n_sec: int = 1
    H_M: float | None = None
    H_j: tuple[float, ...] | None = None
    P_group: float | None = None
    tau: int = 26
    a: float = 0.0
    f: float = 0.8
    b1: float = 3.5
    seed: int = 0
    t_max: int = 10_000
    warmup: int | None = None

    @property
    def beta(self) -> float:
        return 2.0 - self.alpha

    @property
    def warmup_days(self) -> int:
        return self.M if self.warmup is None else self.warmup

    def k_for(self, model: str) -> float:
        return DEFAULT_K[model] if self.k is None else self.k

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "H_j" or (value is None and f.default is None):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if f.name not in _INTEGER_FIELDS:
                if not _is_finite_float(value):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
            elif not isinstance(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            elif abs(value) > INT_FIELD_MAX:
                raise ConfigError(
                    f"{f.name} must be at most {INT_FIELD_MAX} in magnitude, "
                    f"got {value!r}"
                )
        if self.H_j is not None:
            _sector_degrees(self.H_j)
        for name, rule, holds in _RANGES:
            value = getattr(self, name)
            if value is not None and not holds(value):
                raise ConfigError(f"{name} must {rule}, got {value}")
        if self.warmup is not None and self.warmup < self.M:
            raise ConfigError(
                f"warmup must be at least M={self.M}, got {self.warmup}"
            )
        if self.t_max <= self.warmup_days:
            raise ConfigError(
                f"t_max={self.t_max} leaves no days after the "
                f"{self.warmup_days}-day warmup"
            )

    def validate_for(self, model: str) -> None:
        """Validate the fields the given driver ('a'..'d') consumes."""
        self.validate()
        if model == "c":
            if self.t_max - self.warmup_days < 2:
                raise ConfigError(
                    f"model c needs at least 2 output days for its panel; "
                    f"t_max={self.t_max} leaves 1 after the "
                    f"{self.warmup_days}-day warmup"
                )
            if self.n < 1 or self.n_sec < 1 or self.n % self.n_sec != 0:
                raise ConfigError(
                    f"n_sec={self.n_sec} must divide the stock count n={self.n}"
                )
            if self.P_group is None or not 0.0 < self.P_group <= 0.5:
                raise ConfigError(
                    f"P_group must lie in (0, 0.5], got {self.P_group}"
                )
            if self.H_M is None or self.H_j is None:
                raise ConfigError("model c requires H_M and H_j")
            if self.H_M <= 0.0:
                raise ConfigError(f"H_M must be > 0, got {self.H_M}")
            if len(self.H_j) != self.n_sec:
                raise ConfigError(
                    f"H_j has {len(self.H_j)} entries for n_sec={self.n_sec}"
                )
            for j, h in enumerate(self.H_j, start=1):
                if h <= self.H_M:
                    raise ConfigError(
                        f"sector {j}: H_j={h} must exceed H_M={self.H_M}"
                    )
            # At most N + n I-groups make 1 to (N + n) / (n (H_j - H_M))
            # S-groups in a sector, and those over n H_M the M-group slots of
            # a day.  The bounds are multiplied out: a denominator may underflow.
            igroups_max = GROUP_COUNT_MAX * self.n * (min(self.H_j) - self.H_M)
            if (self.N + self.n > min(igroups_max, igroups_max * self.n * self.H_M)
                    or GROUP_COUNT_MAX * self.n * self.H_M < 1):
                raise ConfigError(f"H_M={self.H_M} and H_j={self.H_j} allow "
                                  f"more than {GROUP_COUNT_MAX} S-groups in a "
                                  "sector or M-group slots")
        elif model in ("a", "b"):
            # the bull and bear trade probabilities 2p*alpha and 2p*beta
            if 2.0 * self.p * max(self.alpha, self.beta) > 1.0:
                raise ConfigError(
                    f"2p*max(alpha, beta) must be at most 1, got p={self.p}, "
                    f"alpha={self.alpha}"
                )
        elif model != "d":
            raise ConfigError(f"unknown model {model!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Build a config from a dict with exactly the field names above."""
        _require_object(data)
        extra = sorted(data.keys() - _FIELDS)
        if extra:
            raise ConfigError(f"unknown config fields: {', '.join(extra)}")
        return cls(**_coerce(data))

    @classmethod
    def from_fragment(cls, data: dict, base: "ModelConfig") -> "ModelConfig":
        """Overlay a calibration-report fragment onto a base config.

        Keys that are not ModelConfig fields (beta, delta_r, delta_F, ...)
        are ignored, so a calibration report is directly loadable.
        """
        _require_object(data)
        updates = {k: v for k, v in data.items() if k in _FIELDS and v is not None}
        return dataclasses.replace(base, **_coerce(updates))


#: The field names of ModelConfig, the keys a config may hold.
_FIELDS = frozenset(f.name for f in dataclasses.fields(ModelConfig))

#: The range of each numeric field validate() checks, in the order checked:
#: (name, rule as the error message states it, test of a value).  A None
#: value (only k's) passes.
_RANGES = (
    ("seed", "be >= 0", lambda v: v >= 0),
    ("N", "be >= 1", lambda v: v >= 1),
    ("M", "lie in [50, 500]", lambda v: 50 <= v <= 500),
    ("p", "lie in (0, 0.5)", lambda v: 0.0 < v < 0.5),
    ("k", "be positive", lambda v: v > 0.0),
    ("alpha", "lie in (0, 2)", lambda v: 0.0 < v < 2.0),
    ("c", "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ("tau", "be >= 1", lambda v: v >= 1),
    ("a", "lie in [0, 1)", lambda v: 0.0 <= v < 1.0),
    ("f", "lie in (0.5, 1]", lambda v: 0.5 < v <= 1.0),
    ("b1", "be positive", lambda v: v > 0.0),
    ("t_max", "be >= 1", lambda v: v >= 1),
)

#: Fields annotated int (annotations are strings under postponed evaluation).
_INTEGER_FIELDS = frozenset(
    f.name
    for f in dataclasses.fields(ModelConfig)
    if f.type in ("int", "int | None")
)


def _coerce(data: dict) -> dict:
    """Parsed JSON values as field values: H_j as a tuple of floats, and
    integral floats (10.0) as ints in integer fields.  Everything else is
    left for validate() to accept or reject."""
    d = dict(data)
    for name in _INTEGER_FIELDS & d.keys():
        value = d[name]
        if isinstance(value, float) and value.is_integer():
            d[name] = int(value)
    if d.get("H_j") is not None:
        d["H_j"] = _sector_degrees(d["H_j"])
    return d


def _sector_degrees(value) -> tuple[float, ...]:
    """H_j as a tuple of floats; ConfigError unless a list of finite numbers."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"H_j must be a list of numbers, got {value!r}")
    for h in value:
        if (
            isinstance(h, bool)
            or not isinstance(h, numbers.Real)
            or not _is_finite_float(h)
        ):
            raise ConfigError(f"H_j entries must be finite numbers, got {h!r}")
    return tuple(float(h) for h in value)


def _is_finite_float(value: numbers.Real) -> bool:
    """True if the real number converts to a finite float (false for NaN,
    infinities and ints beyond the float range)."""
    return abs(value) <= sys.float_info.max


def _require_object(data) -> None:
    if not isinstance(data, dict):
        raise ConfigError(
            f"config must be a JSON object, got {type(data).__name__}"
        )


def read_json(path):
    """The JSON value in the file at `path`; a file that is not JSON text
    raises InputError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON, or bytes that are not text
            raise InputError(f"{path}: invalid JSON: {exc}") from None
