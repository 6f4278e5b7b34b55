"""Deterministic synthetic sales-panel generator.

Each item-day cell has a demand level R: item popularity (lognormal
across items) times a weekly seasonality cycle, spike-day multipliers
(holiday-style surges), and a price-elasticity term on a slowly
drifting log price.  Sales are compound Poisson-Gamma around that
level: an event count N ~ Poisson(R^(2-p)) and N jumps of
Gamma(gamma_shape, gamma_scale * R^(p-1)), where
p = (gamma_shape + 2) / (gamma_shape + 1).

That exponent split is what makes the panel an honest Tweedie testbed:
every cell is exactly Tweedie-distributed with mean
gamma_shape * gamma_scale * R, variance power p, and one dispersion
shared by all cells, so variance scales as mean^p across the whole
panel and a power sweep has a real ground truth to recover.  (Keeping
the jump scale fixed instead would make variance scale linearly in the
mean no matter the shape, silently turning every configuration into a
power-1 process.)  The result is right-skewed raw sales whose log is
close to normal, with genuine zero-sales days.

Every draw comes from a Philox stream keyed by (seed, item, day), so
panels are byte-identical across runs, platforms, and any parallel
generation order.  Each item makes one generator and re-seats it for
each of its days.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, JsonRecord, at_least, read_json
from .panel import SalesPanel
from .rng import keyed_stream, reseat

FEATURE_NAMES = ("log_price", "weekly_index", "spike_mult", "log_popularity")

# counter tag separating item-level draws from the per-day cells
_ITEM_STREAM = 1 << 32

# the most item-day cells a panel may have: 68 times the default 200 x 730
# panel, about 0.4 GB of arrays
_MAX_CELLS = 10**7

# the largest rate numpy's Poisson sampler accepts
_POISSON_MAX = np.iinfo("l").max - 10 * np.sqrt(np.iinfo("l").max)

@dataclass(frozen=True)
class GenConfig(JsonRecord):
    """Knobs of the synthetic world; generation is a pure function of it."""

    JSON_NAME = "generator config"

    n_items: int = 200
    n_days: int = 730
    seed: int = 20240405
    base_rate_lognormal: tuple[float, float] = (1.0, 1.0)  # (mu, sigma) of popularity
    gamma_shape: float = 1.0
    gamma_scale: float = 1.0
    price_elasticity: float = -1.5
    spike_days: tuple[tuple[int, float], ...] = ((170, 3.0), (330, 5.0), (535, 3.0), (695, 5.0))
    weekly_seasonality: tuple[float, ...] = (0.9, 0.95, 1.0, 1.0, 1.05, 1.3, 1.1)
    start_day: dt.date = dt.date(2020, 1, 6)  # a Monday
    price_walk_sigma: float = 0.0075

    def __post_init__(self):
        super().__post_init__()
        at_least(self, n_items=1, n_days=1)
        if int(self.n_items) * int(self.n_days) > _MAX_CELLS:  # numpy integers may wrap
            raise ConfigError(f"n_items * n_days must be at most {_MAX_CELLS:,} cells, "
                              f"got {self.n_items} * {self.n_days}")
        if self.start_day.toordinal() + int(self.n_days) - 1 > dt.date.max.toordinal():
            raise ConfigError(f"start_day {self.start_day} and n_days {self.n_days} put the "
                              f"last day after {dt.date.max}")
        if self.gamma_shape <= 0 or self.gamma_scale <= 0:
            raise ConfigError("gamma shape and scale must be positive")
        if self.price_elasticity > 0:
            raise ConfigError("price elasticity must be <= 0")
        if self.base_rate_lognormal[1] < 0:
            raise ConfigError("base_rate_lognormal must be (mu, sigma) with sigma >= 0, "
                              f"got {list(self.base_rate_lognormal)!r}")
        weekly = self.weekly_seasonality
        if len(weekly) != 7 or min(weekly) < 0:
            raise ConfigError("weekly_seasonality must be 7 multipliers >= 0, "
                              f"got {list(weekly)!r}")
        if any(m < 1.0 for _, m in self.spike_days):
            raise ConfigError("spike_days multipliers must be >= 1, "
                              f"got {[list(s) for s in self.spike_days]!r}")
        days = [d for d, _ in self.spike_days]
        if len(set(days)) != len(days) or min(days, default=0) < 0:
            raise ConfigError(f"spike_days must name distinct days >= 0, got {days!r}")


def load_gen_config(path) -> GenConfig:
    return GenConfig.from_json(read_json(path, "generator config"))


def theoretical_tweedie_power(cfg: GenConfig) -> float:
    """Variance power of the exact generating process.

    A Poisson sum of Gamma(shape, scale) jumps is Tweedie with
    p = (shape + 2) / (shape + 1), always inside (1, 2).
    """
    a = cfg.gamma_shape
    return (a + 2.0) / (a + 1.0)


def generate(cfg: GenConfig) -> SalesPanel:
    """Generate the panel for a config (deterministic, item-parallel safe).

    A cell whose demand no float holds, or numpy's Poisson sampler cannot
    draw from, is a ``ConfigError`` naming the cell.
    """
    spikes = dict(cfg.spike_days)
    mu_pop, sigma_pop = cfg.base_rate_lognormal
    n = cfg.n_days
    weekly = np.asarray(cfg.weekly_seasonality, dtype=np.float64)[np.arange(n) % 7]
    spike_mult = np.array([spikes.get(d, 1.0) for d in range(n)], dtype=np.float64)
    p = theoretical_tweedie_power(cfg)
    sales = np.empty(cfg.n_items * n)
    features = np.empty((cfg.n_items * n, len(FEATURE_NAMES)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        for i in range(cfg.n_items):
            gen = keyed_stream(cfg.seed, i, a=0, b=_ITEM_STREAM)
            log_pop = float(gen.normal(mu_pop, sigma_pop))
            popularity = float(np.exp(log_pop))
            log_price0 = float(gen.normal(0.0, 0.1))
            steps = gen.normal(0.0, cfg.price_walk_sigma, size=n)
            log_price = log_price0 + np.cumsum(steps)
            for d in range(n):
                level = (
                    popularity
                    * weekly[d]
                    * spike_mult[d]
                    * float(np.exp(cfg.price_elasticity * log_price[d]))
                )
                reseat(gen, d)
                sales[i * n + d] = _compound_sales(
                    gen,
                    lam=level ** (2.0 - p),
                    shape=cfg.gamma_shape,
                    scale=cfg.gamma_scale * level ** (p - 1.0),
                )
                if not math.isfinite(sales[i * n + d]):
                    raise ConfigError(
                        f"item {i}, day {d}: the demand level is too large to draw sales "
                        "from; it is set by base_rate_lognormal, weekly_seasonality, "
                        "spike_days, price_elasticity, price_walk_sigma and gamma_scale")
            features[i * n:(i + 1) * n] = np.column_stack(
                [log_price, weekly, spike_mult, np.full(n, log_pop)])
    start = cfg.start_day.toordinal()
    return SalesPanel(
        [f"item_{i:04d}" for i in range(cfg.n_items)],
        np.repeat(np.arange(cfg.n_items), n),
        np.tile(np.arange(start, start + n), cfg.n_items),
        sales,
        features,
        FEATURE_NAMES,
    )


def _compound_sales(gen: np.random.Generator, lam: float, shape: float, scale: float) -> float:
    """One draw of sum_{k<=N} Gamma(shape, scale) with N ~ Poisson(lam).

    Uses the additivity of same-scale Gammas: the sum is exactly
    Gamma(shape * N, scale), so one draw suffices.  NaN, and no draw, if
    the rate is beyond numpy's sampler or the scale is not finite.
    """
    if not (lam <= _POISSON_MAX and math.isfinite(scale)):
        return math.nan
    if lam <= 0.0:
        return 0.0
    n = int(gen.poisson(lam))
    if n == 0:
        return 0.0
    return float(gen.standard_gamma(shape * n) * scale)
