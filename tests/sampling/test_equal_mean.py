"""Unit tests for repro.sampling.equal_mean."""

import hashlib

import numpy as np
import pytest

from repro.core.params import PAPER_TABLE1
from repro.errors import SamplingError
from repro.experiments import collect_trials
from repro.sampling.equal_mean import (equal_mean_pair, equal_mean_pairs,
                                       mean_preserving_spread)
from repro.sampling.generators import RHO_FLOOR


class TestRescaleStrategy:
    def test_means_match(self, rng):
        for _ in range(20):
            a, b = equal_mean_pair(rng, 8, strategy="rescale")
            assert b.mean == pytest.approx(a.mean, rel=1e-12)

    def test_values_in_range(self, rng):
        a, b = equal_mean_pair(rng, 64, strategy="rescale")
        for p in (a, b):
            assert p.fastest_rho > 0.0
            assert p.slowest_rho <= 1.0

    def test_variances_generically_differ(self, rng):
        diffs = [abs(a.variance - b.variance)
                 for a, b in (equal_mean_pair(rng, 8) for _ in range(10))]
        assert all(d > 0.0 for d in diffs)


class TestSpreadStrategy:
    def test_means_match_exactly_by_construction(self, rng):
        a, b = equal_mean_pair(rng, 16, strategy="spread")
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_widened_has_larger_variance(self, rng):
        for _ in range(10):
            a, b = equal_mean_pair(rng, 16, strategy="spread")
            assert a.variance >= b.variance

    def test_spread_steps_parameter(self, rng):
        a, b = equal_mean_pair(rng, 8, strategy="spread", spread_steps=100)
        assert a.variance > b.variance


class TestWindowStrategy:
    def test_means_match(self, rng):
        for _ in range(20):
            a, b = equal_mean_pair(rng, 32, strategy="window")
            assert b.mean == pytest.approx(a.mean, rel=1e-12)

    def test_gap_does_not_collapse_with_n(self, rng):
        gaps_small = np.mean([abs(a.variance - b.variance)
                              for a, b in (equal_mean_pair(rng, 8, strategy="window")
                                           for _ in range(60))])
        gaps_large = np.mean([abs(a.variance - b.variance)
                              for a, b in (equal_mean_pair(rng, 512, strategy="window")
                                           for _ in range(60))])
        # O(1) gaps at every size (the rescale strategy's gaps vanish).
        assert gaps_large > 0.25 * gaps_small


class TestMixedStrategy:
    def test_produces_valid_pairs(self, rng):
        for _ in range(10):
            a, b = equal_mean_pair(rng, 16, strategy="mixed")
            assert a.mean == pytest.approx(b.mean, rel=1e-12)


class TestMeanPreservingSpread:
    def test_sum_invariant(self, rng):
        values = rng.uniform(0.1, 0.9, 10)
        out = mean_preserving_spread(rng, values, steps=50, widen=True)
        assert out.sum() == pytest.approx(values.sum(), rel=1e-12)

    def test_widen_increases_variance(self, rng):
        values = rng.uniform(0.3, 0.7, 10)
        out = mean_preserving_spread(rng, values, steps=50, widen=True)
        assert out.var() >= values.var()

    def test_tighten_decreases_variance(self, rng):
        values = rng.uniform(0.1, 0.9, 10)
        out = mean_preserving_spread(rng, values, steps=50, widen=False)
        assert out.var() <= values.var()

    def test_stays_in_box(self, rng):
        values = rng.uniform(0.1, 0.9, 10)
        out = mean_preserving_spread(rng, values, steps=200, widen=True,
                                     low=0.05, high=0.95)
        assert out.min() >= 0.05 - 1e-12
        assert out.max() <= 0.95 + 1e-12

    def test_input_not_modified(self, rng):
        values = rng.uniform(0.1, 0.9, 10)
        copy = values.copy()
        mean_preserving_spread(rng, values, steps=10, widen=True)
        assert (values == copy).all()

    def test_needs_two_entries(self, rng):
        with pytest.raises(SamplingError):
            mean_preserving_spread(rng, np.array([0.5]), steps=1, widen=True)


class TestBatchSpread:
    """``mean_preserving_spread`` over an (m, n) batch of rows (sums, box,
    variance direction and the m=1 view are property-tested in
    tests/properties/test_variance_properties.py)."""

    def test_each_step_moves_two_distinct_entries(self, rng):
        # n = 2 with distinct entries: a pair with i == j would move
        # nothing, so every row's variance must drop on one tighten step.
        rows = np.column_stack([rng.uniform(0.6, 0.9, 500),
                                rng.uniform(0.1, 0.4, 500)])
        out = mean_preserving_spread(rng, rows, steps=1, widen=False)
        assert (out.var(axis=1) < rows.var(axis=1)).all()


def _old_spread(rng, values, *, steps, widen, low=RHO_FLOOR, high=1.0):
    """The per-step loop the columnar spread replaced (reference only)."""
    out = values.astype(float).copy()
    n = out.size
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = out[i], out[j]
        if widen:
            room = min(high - max(a, b), min(a, b) - low)
            if room <= 0.0:
                continue
            shift = rng.random() * room
        else:
            shift = -rng.random() * 0.5 * abs(a - b)
        if a >= b:
            out[i], out[j] = a + shift, b - shift
        else:
            out[i], out[j] = a - shift, b + shift
    return out


def test_columnar_spread_matches_old_loop_in_distribution():
    """Same base rows through both samplers: the variance gap's mean and
    quartiles agree within 2% (six seeds of this setup differ by <= 1%;
    dropping 2 of the 32 steps per side moves them by ~3%)."""
    m, n, steps = 2000, 16, 32
    rng = np.random.default_rng(20)
    base = RHO_FLOOR + (1.0 - RHO_FLOOR) * rng.random((m, n))
    old = np.array([_old_spread(rng, row, steps=steps, widen=True).var()
                    - _old_spread(rng, row, steps=steps, widen=False).var()
                    for row in base])
    new = (mean_preserving_spread(rng, base, steps=steps, widen=True).var(axis=1)
           - mean_preserving_spread(rng, base, steps=steps, widen=False).var(axis=1))

    def summary(gaps):
        return np.array([gaps.mean(), *np.quantile(gaps, [0.25, 0.5, 0.75])])

    np.testing.assert_allclose(summary(new), summary(old), rtol=0.02)


class TestEqualMeanPairs:
    @pytest.mark.parametrize("strategy", ["rescale", "spread", "window", "mixed"])
    def test_shapes_means_and_ties(self, rng, strategy):
        a, b = equal_mean_pairs(rng, 40, 12, strategy=strategy)
        assert a.shape == b.shape == (40, 12)
        np.testing.assert_allclose(a.mean(axis=1), b.mean(axis=1), rtol=1e-12)
        assert (a.var(axis=1) != b.var(axis=1)).all()
        for side in (a, b):
            assert side.min() >= RHO_FLOOR - 1e-12
            assert side.max() <= 1.0 + 1e-12

    def test_spread_widens_first_side(self, rng):
        a, b = equal_mean_pairs(rng, 100, 16, strategy="spread")
        assert (a.var(axis=1) > b.var(axis=1)).all()

    @pytest.mark.parametrize("strategy", ["rescale", "spread", "window", "mixed"])
    def test_single_pair_is_the_m1_view(self, strategy):
        p1, p2 = equal_mean_pair(np.random.default_rng(11), 10,
                                 strategy=strategy)
        a, b = equal_mean_pairs(np.random.default_rng(11), 1, 10,
                                strategy=strategy)
        assert (p1.rho == a[0]).all() and (p2.rho == b[0]).all()

    @pytest.mark.parametrize("strategy", ["rescale", "spread"])
    def test_empty_batch(self, rng, strategy):
        a, b = equal_mean_pairs(rng, 0, 8, strategy=strategy)
        assert a.shape == b.shape == (0, 8)

    def test_rejects_zero_spread_steps(self, rng):
        with pytest.raises(SamplingError):
            equal_mean_pairs(rng, 4, 8, strategy="spread", spread_steps=0)


#: sha256 digests recorded before the columnar rewrite: the rescale,
#: window and mixed streams must stay bit-identical (rows written raw,
#: same per-row draw order, ties redrawn in place).
_GOLDEN_ROWS = {
    "rescale": "f1b3e0460fc72a9557ce2fb1b59bffdb05682fcade8ddc6b77ef5c63d37b9f5a",
    "window": "2b93ea744b5b635b0ac0785c029102b0c2f8f4fe32089127a066af25d8b7e155",
    "mixed": "4d9184f091d4376b7f3ee4eaf612a70f86d6a4886562dee9b0c45fd4d8300f70",
}
_GOLDEN_TRIALS = {
    "rescale": "726447721a033efe05f9da1cf11ecf67624022171ba722ac82c630c1c834db8b",
    "window": "4aa576b99227ba8a47f0774ae5607dff2c1cd4efc556b915cb6623a40e05f0bf",
    "mixed": "99e9cd734e8ff42dd5b8c286a3780fba038e06b9ff5e938dc8ef4d54cf5cef04",
}


@pytest.mark.parametrize("strategy", sorted(_GOLDEN_ROWS))
def test_row_strategies_stream_is_pinned(strategy):
    a, b = equal_mean_pairs(np.random.default_rng(7), 50, 16,
                            strategy=strategy)
    digest = hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest()
    assert digest == _GOLDEN_ROWS[strategy]
    batch = collect_trials(np.random.default_rng(7), 16, 50, PAPER_TABLE1,
                           strategy=strategy)
    digest = hashlib.sha256(batch.variance_gaps.tobytes()
                            + batch.good.tobytes()).hexdigest()
    assert digest == _GOLDEN_TRIALS[strategy]


class TestValidation:
    def test_rejects_n1(self, rng):
        with pytest.raises(SamplingError):
            equal_mean_pair(rng, 1)

    def test_rejects_unknown_strategy(self, rng):
        with pytest.raises(SamplingError):
            equal_mean_pair(rng, 4, strategy="bogus")  # type: ignore[arg-type]
