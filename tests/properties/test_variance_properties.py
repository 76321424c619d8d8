"""Property-based tests for Theorem 5 and the sampling substrate."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.measure import x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.sampling.equal_mean import equal_mean_pair, mean_preserving_spread
from repro.sampling.generators import RHO_FLOOR


@given(
    mean=st.floats(min_value=0.1, max_value=0.9),
    s1=st.floats(min_value=0.0, max_value=1.0),
    s2=st.floats(min_value=0.0, max_value=1.0),
    tau=st.floats(min_value=1e-6, max_value=0.2),
    pi=st.floats(min_value=0.0, max_value=0.2),
    delta=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_theorem5_two_computer_biconditional(mean, s1, s2, tau, pi, delta):
    """n = 2, equal means: larger variance ⇔ larger X, any admissible env."""
    params = ModelParams(tau=tau, pi=pi, delta=delta)
    assume(params.satisfies_standing_assumption)
    cap = min(mean, 1.0 - mean) * 0.999
    spread1, spread2 = s1 * cap, s2 * cap
    assume(abs(spread1 - spread2) > 1e-9)
    p1 = Profile([mean + spread1, mean - spread1])
    p2 = Profile([mean + spread2, mean - spread2])
    larger_var_first = p1.variance > p2.variance
    x1, x2 = x_measure(p1, params), x_measure(p2, params)
    assume(abs(x1 - x2) > 1e-12 * max(x1, x2))
    assert larger_var_first == (x1 > x2)


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       n=st.integers(min_value=2, max_value=64),
       strategy=st.sampled_from(["rescale", "spread", "window", "mixed"]))
@settings(max_examples=100, deadline=None)
def test_equal_mean_pair_invariants(seed, n, strategy):
    rng = np.random.default_rng(seed)
    a, b = equal_mean_pair(rng, n, strategy=strategy)
    assert a.n == b.n == n
    assert b.mean == pytest.approx(a.mean, rel=1e-10)
    for p in (a, b):
        assert p.fastest_rho > 0.0
        assert p.slowest_rho <= 1.0 + 1e-12


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       n=st.integers(min_value=2, max_value=32),
       steps=st.integers(min_value=1, max_value=60),
       widen=st.booleans())
@settings(max_examples=100, deadline=None)
def test_mean_preserving_spread_invariants(seed, n, steps, widen):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 0.9, n)
    out = mean_preserving_spread(rng, values, steps=steps, widen=widen)
    assert out.sum() == pytest.approx(values.sum(), rel=1e-12)
    if widen:
        assert out.var() >= values.var() - 1e-15
    else:
        assert out.var() <= values.var() + 1e-15


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       m=st.integers(min_value=1, max_value=12),
       n=st.integers(min_value=2, max_value=24),
       steps=st.integers(min_value=0, max_value=60),
       widen=st.booleans(),
       box=st.sampled_from([(RHO_FLOOR, 1.0), (0.05, 0.95), (0.3, 0.7)]))
@settings(max_examples=100, deadline=None)
def test_batch_spread_invariants(seed, m, n, steps, widen, box):
    """Every row of an (m, n) spread keeps its sum and its box, moves its
    variance the right way, and the input is left alone."""
    low, high = box
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, (m, n))
    before = values.copy()
    out = mean_preserving_spread(rng, values, steps=steps, widen=widen,
                                 low=low, high=high)
    assert (values == before).all()
    assert out.shape == (m, n)
    np.testing.assert_allclose(out.sum(axis=1), values.sum(axis=1),
                               rtol=0.0, atol=1e-12)
    assert out.min() >= low - 1e-12 and out.max() <= high + 1e-12
    if widen:
        assert (out.var(axis=1) >= values.var(axis=1) - 1e-15).all()
    else:
        assert (out.var(axis=1) <= values.var(axis=1) + 1e-15).all()
    one = mean_preserving_spread(np.random.default_rng(seed), values[0],
                                 steps=steps, widen=widen, low=low, high=high)
    first = mean_preserving_spread(np.random.default_rng(seed), values[:1],
                                   steps=steps, widen=widen, low=low,
                                   high=high)
    assert (one == first[0]).all()
