"""Equal-mean cluster-pair generation (the §4.3 experimental setup).

Each §4.3 trial needs two n-computer profiles with (a) identical mean
speed and (b) different variances.  Two documented strategies:

``rescale``
    Draw both profiles i.i.d. uniform, then rescale the second so its
    mean matches the first's: ``P₂ ← P₂ · (mean(P₁)/mean(P₂))``.
    Rejection-resample while any rescaled entry leaves (0, 1].  Produces
    pairs whose variances differ by typically modest amounts — the
    regime where the predictor's ≈76% accuracy lives.

``spread``
    Start from a common random profile and apply opposite-signed
    *mean-preserving spread* transforms: repeatedly pick two entries of
    P₁ and push them apart (raising variance), and two entries of P₂
    and pull them together (lowering variance), always within (0, 1].
    Means are preserved exactly by construction, and the variance gap is
    controllable — the tool for mapping the θ-threshold curve.

``window``
    Draw P₁ uniform over (low, 1], then P₂ uniform over the window
    ``[m − h, m + h]`` around P₁'s mean ``m`` with a random half-width
    ``h``, rescaled to match the mean exactly.  The variance gap is
    ``Θ(1)`` regardless of n, so the predictor's accuracy *plateaus*
    with cluster size the way the paper's does.

``mixed``
    Each pair picks ``rescale`` or ``window`` uniformly at random —
    the default for the §4.3 trials: rescale pairs dominate at small n
    (small gaps, occasional errors) while window pairs keep the error
    rate from collapsing to a coin flip at large n, reproducing the
    paper's grow-then-plateau accuracy curve.

:func:`equal_mean_pairs` draws a batch of pairs as two ``(m, n)`` arrays
whose row means agree to machine precision and whose variances differ;
:func:`equal_mean_pair` is its one-pair view.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.profile import Profile
from repro.errors import SamplingError
from repro.sampling.generators import RHO_FLOOR

__all__ = ["equal_mean_pair", "equal_mean_pairs", "mean_preserving_spread"]

_MAX_REJECTIONS = 1000


def _uniform(rng: np.random.Generator, shape, low: float) -> np.ndarray:
    return low + (1.0 - low) * rng.random(shape)


def mean_preserving_spread(rng: np.random.Generator, values: np.ndarray, *,
                           steps: int, widen: bool,
                           low: float = RHO_FLOOR, high: float = 1.0) -> np.ndarray:
    """Apply ``steps`` random mean-preserving spread transforms per row.

    ``values`` is one profile ``(n,)`` or a batch of rows ``(m, n)``.
    Each step picks two distinct entries ``i``, ``j = (i + 1 + U{0..n-2})
    mod n`` of every row and moves them symmetrically — apart when
    ``widen`` (variance up), together otherwise — by a random fraction
    of the room that keeps both inside ``[low, high]``.  Row sums are
    invariant.  Draws come in blocks of at most ``n`` steps (memory
    O(m·n)) and each step is one fancy-indexed update of all rows.

    Returns a new array of the input's shape; the input is not modified.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 2:
        raise SamplingError("mean-preserving spread needs at least 2 entries")
    out = np.array(values, ndmin=2)          # a fresh C-contiguous copy
    m, n = out.shape
    flat = out.reshape(-1)
    row_start = np.arange(m) * n
    sign = 1.0 if widen else -1.0            # apart vs together
    done = 0
    while done < steps:
        block = min(steps - done, n)
        first = rng.integers(n, size=(block, m))
        second = (first + 1 + rng.integers(n - 1, size=(block, m))) % n
        fractions = rng.random((block, m))
        for i, j, u in zip(first + row_start, second + row_start, fractions):
            a, b = flat[i], flat[j]
            if widen:
                room = np.minimum(high - np.maximum(a, b), np.minimum(a, b) - low)
                shift = u * np.maximum(room, 0.0)
            else:
                shift = u * 0.5 * np.abs(a - b)
            shift = np.where(a >= b, sign * shift, -sign * shift)
            flat[i] = a + shift
            flat[j] = b - shift
        done += block
    return out if values.ndim == 2 else out[0]


def _row_pair(rng: np.random.Generator, n: int, strategy: str,
              low: float) -> tuple[np.ndarray, np.ndarray]:
    """One ``rescale`` or ``window`` pair, rejection-sampled into the box."""
    for _ in range(_MAX_REJECTIONS):
        a = _uniform(rng, n, low)
        if strategy == "rescale":
            b = _uniform(rng, n, low)
            b = b * (a.mean() / b.mean())
        else:
            # a narrow same-mean profile around a's mean
            m = float(a.mean())
            h_max = min(m - low, 1.0 - m)
            if h_max <= 0.0:
                continue
            h = rng.random() * h_max
            b = m - h + 2.0 * h * rng.random(n)
            b = b * (m / float(b.mean()))
        if low <= b.min() and b.max() <= 1.0:
            return a, b
    raise SamplingError(
        f"could not generate a {strategy} pair within {_MAX_REJECTIONS} "
        f"attempts (n={n}, low={low!r})")


def equal_mean_pairs(rng: np.random.Generator, m: int, n: int, *,
                     strategy: Literal["rescale", "spread", "window",
                                       "mixed"] = "rescale",
                     low: float = RHO_FLOOR,
                     spread_steps: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``m`` §4.3 trial pairs at cluster size ``n`` (≥ 2).

    Returns ``(m, n)`` arrays ``A``, ``B``; pair ``t`` is ``(A[t], B[t])``
    with equal means and (exact ties redrawn) unequal variances.
    ``strategy`` is one of the module docstring's; ``low`` is the ρ
    floor; ``spread_steps`` is the spread transforms per side (default
    ``2n``).  Rescale, window and mixed draw row by row, retries
    included; spread draws the whole batch at once.

    Raises :class:`SamplingError` on invalid arguments or when rejection
    sampling exhausts its budget (only possible for extreme ``low``).
    """
    if n < 2:
        raise SamplingError(f"equal-mean pairs need n >= 2, got {n}")
    if strategy == "spread":
        steps = spread_steps if spread_steps is not None else 2 * n
        if steps < 1:
            raise SamplingError(f"spread_steps must be >= 1, got {steps}")
        base = _uniform(rng, (m, n), low)
        widened = mean_preserving_spread(rng, base, steps=steps, widen=True,
                                         low=low)
        tightened = mean_preserving_spread(rng, base, steps=steps, widen=False,
                                           low=low)
        tied = widened.var(axis=1) == tightened.var(axis=1)
        if tied.any():
            widened[tied], tightened[tied] = equal_mean_pairs(
                rng, int(tied.sum()), n, strategy="spread", low=low,
                spread_steps=steps)
        return widened, tightened
    if strategy not in ("rescale", "window", "mixed"):
        raise SamplingError(
            f"unknown strategy {strategy!r}; use 'rescale', 'spread', "
            f"'window' or 'mixed'")
    first = np.empty((m, n))
    second = np.empty((m, n))
    for t in range(m):
        while True:
            row_strategy = strategy
            if strategy == "mixed":
                row_strategy = "rescale" if rng.random() < 0.5 else "window"
            a, b = _row_pair(rng, n, row_strategy, low)
            if a.var() != b.var():
                break
        first[t] = a
        second[t] = b
    return first, second


def equal_mean_pair(rng: np.random.Generator, n: int, *,
                    strategy: Literal["rescale", "spread", "window",
                                      "mixed"] = "rescale",
                    low: float = RHO_FLOOR,
                    spread_steps: int | None = None) -> tuple[Profile, Profile]:
    """Generate one §4.3 trial pair: the ``m = 1`` view of
    :func:`equal_mean_pairs`, wrapped as profiles."""
    a, b = equal_mean_pairs(rng, 1, n, strategy=strategy, low=low,
                            spread_steps=spread_steps)
    return Profile(a[0]), Profile(b[0])
