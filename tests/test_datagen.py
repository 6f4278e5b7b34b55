"""Synthetic panel generator: determinism, shape of the data, and the
exactness of its mean/variance contract."""

import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewcast as sc
from skewcast.datagen import FEATURE_NAMES, _compound_sales
from skewcast.errors import ConfigError
from skewcast.rng import keyed_stream, reseat


def _skew(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.mean()
    m2 = ((x - m) ** 2).mean()
    m3 = ((x - m) ** 3).mean()
    return m3 / m2 ** 1.5


class TestKeyedStream:
    def test_same_address_same_draws(self):
        a = keyed_stream(42, 7, a=3, b=1).normal(size=16)
        b = keyed_stream(42, 7, a=3, b=1).normal(size=16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_addresses_differ(self):
        base = keyed_stream(42, 7, a=3, b=1).normal(size=16)
        for other in (keyed_stream(43, 7, a=3, b=1),
                      keyed_stream(42, 8, a=3, b=1),
                      keyed_stream(42, 7, a=4, b=1),
                      keyed_stream(42, 7, a=3, b=2)):
            assert not np.array_equal(base, other.normal(size=16))

    @settings(max_examples=200)
    @given(key=st.tuples(st.integers(-2**63, 2**64 - 1), st.integers(0, 2**40)),
           start=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
           used=st.lists(st.sampled_from(["poisson", "gamma", "normal", "uint32", "bool"]),
                         max_size=6),
           to=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))
    def test_reseat_draws_as_a_new_stream(self, key, start, used, to):
        """A re-seated generator draws what a new one at its address draws,
        whatever the old address and however much of it was used (32-bit
        draws leave half a word buffered)."""
        def draws(gen, kinds):
            out = []
            for kind in kinds:
                if kind == "poisson":
                    out.append(gen.poisson(3.7))
                elif kind == "gamma":
                    out.append(gen.standard_gamma(0.8 * (1 + len(out))))
                elif kind == "normal":
                    out.append(gen.normal(0.0, 1.0, size=3).tolist())
                elif kind == "uint32":
                    out.append(int(gen.integers(0, 2**32, dtype=np.uint32)))
                else:
                    out.append(bool(gen.integers(0, 2, dtype=bool)))
            return out

        gen = keyed_stream(*key, *start)
        draws(gen, used)
        reseat(gen, *to)
        kinds = ["uint32", "poisson", "gamma", "normal", "bool", "uint32"]
        assert draws(gen, kinds) == draws(keyed_stream(*key, *to), kinds)


class TestCompoundSales:
    def test_zero_rate_means_zero_sales(self):
        gen = keyed_stream(1, 2)
        assert _compound_sales(gen, lam=0.0, shape=1.0, scale=1.0) == 0.0

    def test_sales_non_negative(self):
        gen = keyed_stream(1, 3)
        draws = [_compound_sales(gen, 2.0, 1.0, 1.5) for _ in range(500)]
        assert min(draws) >= 0.0
        assert any(d == 0.0 for d in draws)  # Poisson(2) hits zero sometimes
        assert any(d > 0.0 for d in draws)

    def test_mean_matches_event_rate_times_jump_mean(self):
        """Law of large numbers on one cell distribution: the mean over
        a million draws lands within 2% of lam * shape * scale."""
        gen = keyed_stream(9, 0)
        lam, shape, scale = 1.3, 1.0, 1.0
        n = gen.poisson(lam, size=1_000_000)
        draws = gen.standard_gamma(shape * n) * scale
        expect = lam * shape * scale
        assert abs(draws.mean() - expect) / expect < 0.02

    def test_variance_scales_with_the_declared_power(self):
        """Across two demand levels, var grows as mean**p with
        p = (shape + 2) / (shape + 1): the generator's core contract."""
        cfg = sc.GenConfig()
        p = sc.theoretical_tweedie_power(cfg)
        gen = keyed_stream(9, 1)
        stats = []
        for level in (1.0, 4.0):
            lam = level ** (2.0 - p)
            scale = cfg.gamma_scale * level ** (p - 1.0)
            n = gen.poisson(lam, size=1_000_000)
            draws = gen.standard_gamma(cfg.gamma_shape * n) * scale
            stats.append((draws.mean(), draws.var()))
        (m1, v1), (m2, v2) = stats
        assert m1 == pytest.approx(1.0, rel=0.02)
        assert m2 == pytest.approx(4.0, rel=0.02)
        p_hat = np.log(v2 / v1) / np.log(m2 / m1)
        assert p_hat == pytest.approx(p, abs=0.05)


class TestTheoreticalPower:
    def test_values(self):
        assert sc.theoretical_tweedie_power(sc.GenConfig()) == pytest.approx(1.5)
        assert sc.theoretical_tweedie_power(
            sc.GenConfig(gamma_shape=2.0)
        ) == pytest.approx(4.0 / 3.0)

    def test_always_inside_compound_regime(self):
        for shape in (0.25, 1.0, 3.0, 10.0):
            p = sc.theoretical_tweedie_power(sc.GenConfig(gamma_shape=shape))
            assert 1.0 < p < 2.0


class TestGenerate:
    def test_generation_is_deterministic(self):
        cfg = sc.GenConfig(n_items=6, n_days=50, seed=123)
        a = sc.generate(cfg)
        b = sc.generate(cfg)
        assert a.item_ids == b.item_ids
        for name in ("item_codes", "day_ordinals", "sales", "feature_matrix"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("cfg", [sc.GenConfig(n_items=3, n_days=60, seed=123),
                                     sc.GenConfig(n_items=2, n_days=40, seed=977,
                                                  gamma_shape=0.3, gamma_scale=2.5)])
    def test_each_cell_draws_from_its_own_address(self, cfg):
        """Cell (item i, day d) is one compound draw from keyed_stream(seed, i, a=d),
        its demand level rebuilt from the row's features."""
        panel = sc.generate(cfg)
        p = sc.theoretical_tweedie_power(cfg)
        days = panel.day_ordinals - cfg.start_day.toordinal()
        for r in range(len(panel)):
            log_price, weekly, spike, log_pop = panel.feature_matrix[r]
            level = (float(np.exp(log_pop)) * weekly * spike
                     * float(np.exp(cfg.price_elasticity * log_price)))
            gen = keyed_stream(cfg.seed, int(panel.item_codes[r]), a=int(days[r]))
            expect = _compound_sales(gen, lam=level ** (2.0 - p), shape=cfg.gamma_shape,
                                     scale=cfg.gamma_scale * level ** (p - 1.0))
            assert panel.sales[r] == expect, r

    def test_shape_and_names(self):
        cfg = sc.GenConfig(n_items=6, n_days=50, seed=123)
        panel = sc.generate(cfg)
        assert len(panel) == 6 * 50
        assert panel.feature_names == FEATURE_NAMES
        assert panel.date_range == (
            cfg.start_day, cfg.start_day + dt.timedelta(days=49)
        )

    def test_default_panel_is_right_skewed(self, default_panel):
        assert _skew(default_panel.sales) > 2.0
        assert _skew(np.log1p(default_panel.sales)) < 1.0

    def test_spike_days_lift_sales(self, default_panel):
        """Mean sales on a multiplier-5 day exceed three times the mean
        of the two surrounding days."""
        cfg = sc.GenConfig()
        days = default_panel.day_ordinals
        start = days.min()
        sales = default_panel.sales
        for offset, mult in cfg.spike_days:
            if mult < 5.0:
                continue
            on = sales[days == start + offset].mean()
            adjacent = sales[(days == start + offset - 1) | (days == start + offset + 1)].mean()
            assert on > 3.0 * adjacent

    def test_spike_feature_carries_the_multiplier(self):
        cfg = sc.GenConfig(n_items=3, n_days=200, seed=5, spike_days=((100, 4.0),))
        panel = sc.generate(cfg)
        col = FEATURE_NAMES.index("spike_mult")
        days = panel.day_ordinals - panel.day_ordinals.min()
        feat = panel.feature_matrix[:, col]
        assert np.all(feat[days == 100] == 4.0)
        assert np.all(feat[days != 100] == 1.0)

    def test_weekly_index_cycles(self):
        cfg = sc.GenConfig(n_items=1, n_days=21, seed=5)
        panel = sc.generate(cfg)
        col = FEATURE_NAMES.index("weekly_index")
        feat = panel.feature_matrix[:, col]
        np.testing.assert_array_equal(feat[:7], cfg.weekly_seasonality)
        np.testing.assert_array_equal(feat[:7], feat[7:14])

    def test_popularity_constant_per_item(self):
        panel = sc.generate(sc.GenConfig(n_items=4, n_days=30, seed=5))
        col = FEATURE_NAMES.index("log_popularity")
        feat = panel.feature_matrix[:, col]
        for code in range(4):
            vals = feat[panel.item_codes == code]
            assert np.all(vals == vals[0])

    def test_items_differ(self):
        panel = sc.generate(sc.GenConfig(n_items=4, n_days=30, seed=5))
        col = FEATURE_NAMES.index("log_popularity")
        feat = panel.feature_matrix[:, col]
        assert len(np.unique(feat)) == 4


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            sc.GenConfig(n_items=0)
        with pytest.raises(ConfigError):
            sc.GenConfig(gamma_shape=0.0)
        with pytest.raises(ConfigError):
            sc.GenConfig(price_elasticity=0.5)
        with pytest.raises(ConfigError):
            sc.GenConfig(weekly_seasonality=(1.0, 1.0))
        with pytest.raises(ConfigError):
            sc.GenConfig(spike_days=((10, 0.5),))

    @pytest.mark.parametrize("field", ["n_items", "n_days", "seed"])
    @pytest.mark.parametrize("value", [2.5, 30.0, True, "3", None, [3]])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            sc.GenConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            sc.GenConfig.from_json({field: value})

    @pytest.mark.parametrize("field", ["gamma_shape", "gamma_scale", "price_elasticity",
                                       "price_walk_sigma"])
    @pytest.mark.parametrize("value", [True, "1.0", None, [1.0], float("nan"), float("inf"),
                                       float("-inf")])
    def test_real_fields_reject_non_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            sc.GenConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            sc.GenConfig.from_json({field: value})

    def test_integer_values_accepted_for_real_fields(self):
        cfg = sc.GenConfig.from_json({"gamma_shape": 2, "gamma_scale": 1,
                                      "price_elasticity": -1, "price_walk_sigma": 0})
        assert (cfg.gamma_shape, cfg.price_elasticity, cfg.price_walk_sigma) == (2, -1, 0)
        assert sc.GenConfig(n_items=np.int64(3), n_days=np.int32(10)).n_items == 3

    @pytest.mark.parametrize("n_items,n_days", [
        (2**70, 10), (10, 2**70), (10**4, 1001), (1, 10**7 + 1), (5000, 5000),
        (np.int64(2**40), np.int64(2**40)),
    ], ids=["huge-items", "huge-days", "just-over", "one-long-item", "square", "int64-wraps"])
    def test_panel_size_is_bounded(self, n_items, n_days):
        """The bound fires before any array is allocated, naming both fields."""
        with pytest.raises(ConfigError, match=r"n_items \* n_days"):
            sc.GenConfig(n_items=n_items, n_days=n_days)
        with pytest.raises(ConfigError, match=r"n_items \* n_days"):
            sc.GenConfig.from_json({"n_items": int(n_items), "n_days": int(n_days)})

    def test_default_and_acceptance_sizes_are_within_the_bound(self):
        assert (sc.GenConfig().n_items, sc.GenConfig().n_days) == (200, 730)
        assert sc.GenConfig.from_json({"n_items": 200, "n_days": 730}) == sc.GenConfig()

    @pytest.mark.parametrize("obj", [
        [1, 2], {"start_day": 5}, {"start_day": "not a date"}, {"start_day": "20200106"},
        {"spike_days": [[1]]}, {"spike_days": [["a", 2.0]]}, {"weekly_seasonality": 7},
    ], ids=["list", "day-not-text", "day-not-iso", "day-compact", "spike-not-pair",
            "spike-day-not-number", "weekly-not-list"])
    def test_malformed_json_is_config_error(self, obj):
        with pytest.raises(ConfigError):
            sc.GenConfig.from_json(obj)

    def test_json_round_trip(self):
        cfg = sc.GenConfig(n_items=7, seed=99, gamma_shape=2.0,
                           spike_days=((10, 2.0),))
        assert sc.GenConfig.from_json(cfg.to_json()) == cfg

    def test_start_day_is_a_date_within_the_calendar(self):
        with pytest.raises(ConfigError, match="start_day must be a date"):
            sc.GenConfig(start_day="2020-01-06")
        with pytest.raises(ConfigError, match="start_day 9999-12-03 and n_days 30"):
            sc.GenConfig(n_days=30, start_day=dt.date(9999, 12, 3))
        last = sc.generate(sc.GenConfig(n_items=1, n_days=30, start_day=dt.date(9999, 12, 2)))
        assert last.date_range[1] == dt.date.max

    def test_numpy_integers_dump_to_json(self):
        cfg = sc.GenConfig(n_items=np.int64(5), n_days=np.int64(30), seed=np.int64(3),
                           spike_days=((np.int64(4), 2.0),))
        assert sc.GenConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg

    def test_load_gen_config(self, tmp_path):
        cfg = sc.GenConfig(n_items=7, seed=99)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(cfg.to_json()), encoding="utf-8")
        assert sc.load_gen_config(path) == cfg

    def test_load_gen_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.load_gen_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            sc.load_gen_config(bad)
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"no_such_knob": 1}), encoding="utf-8")
        with pytest.raises(ConfigError):
            sc.load_gen_config(unknown)
