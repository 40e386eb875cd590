"""Flatness statistics and distribution-distance metrics.

Closed-form constants used by the guarantees:

* ``CUBE_RATIO_C`` -- after one randomized Hadamard layer the expected
  normalized third-moment ratio is at most ``3**0.75 / sqrt(d)``.
* ``BERRY_ESSEEN_C`` -- the sharp Berry-Esseen constant 0.5606 for weighted
  sign sums; the Kolmogorov distance of a two-layer rotation output obeys
  ``d_K <= BERRY_ESSEEN_C * CUBE_RATIO_C / sqrt(d) <= KOLMOGOROV_2LAYER_C / sqrt(d)``.
* ``W1_TRANSPORT_C`` -- the transport-cost multiplier: ``W1 <= 3 * CUBE_RATIO_C / sqrt(d)``.
* ``OUTLIER_2LAYER_C`` -- quantile transfer: ``P(|U| > t_p) <= p + 2.56 / sqrt(d)``.

The empirical statistics are exact order-statistic formulas, not binned
approximations, so the acceptance checks compare like for like.

``scipy.special`` is imported by the functions that call it, not by this
module, so ``import rotquant`` loads numpy and nothing heavier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_dim

__all__ = [
    "CUBE_RATIO_C",
    "BERRY_ESSEEN_C",
    "KOLMOGOROV_2LAYER_C",
    "W1_TRANSPORT_C",
    "OUTLIER_2LAYER_C",
    "FlatnessStats",
    "moment_scan",
    "normal_cdf",
    "normal_quantile",
    "EmpiricalSample",
    "empirical_kolmogorov",
    "empirical_w1",
    "conditional_cov_exact",
]

CUBE_RATIO_C = 3.0**0.75          # ~2.2795
BERRY_ESSEEN_C = 0.5606
KOLMOGOROV_2LAYER_C = 1.28        # rounded-up product 0.5606 * 3**0.75
W1_TRANSPORT_C = 3.0
OUTLIER_2LAYER_C = 2.56           # 2 * KOLMOGOROV_2LAYER_C


@dataclass(frozen=True)
class FlatnessStats:
    """Accumulated moments of one vector: sum x^2, sum |x|^3, max x^2."""

    sum_sq: float
    sum_abs_cubed: float
    max_sq: float
    count: int


def moment_scan(x) -> FlatnessStats:
    """Collect ``(sum x^2, sum |x|^3, max x^2)`` of a 1-d vector.

    Accepts a numpy array or any finite iterable of floats; an iterable is
    read exactly once into an array, so callers may hand in a stream.
    """
    if not isinstance(x, np.ndarray):
        x = np.fromiter(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input must be a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    with np.errstate(over="ignore"):  # an overflow shows as an infinite sum
        sq = x * x
        return FlatnessStats(
            sum_sq=float(np.sum(sq)),
            sum_abs_cubed=float(np.sum(sq * np.abs(x))),
            max_sq=float(np.max(sq)),
            count=x.size,
        )


def normal_cdf(t):
    """Standard normal CDF, vectorized, absolute error below 1e-14."""
    from scipy.special import ndtr

    return ndtr(np.asarray(t, dtype=np.float64))


def normal_quantile(q):
    """Standard normal quantile; satisfies ``|cdf(result) - q| <= 1e-13``."""
    q = np.asarray(q, dtype=np.float64)
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    from scipy.special import ndtri

    out = ndtri(q)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted sample of finite draws; the input to the empirical metrics."""

    values: np.ndarray
    n: int

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            raise ValueError("sample must be non-empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample must be finite")
        v = np.sort(v)
        v.flags.writeable = False
        return cls(values=v, n=int(v.size))


def empirical_kolmogorov(sample: EmpiricalSample) -> float:
    """Exact sup-distance between the empirical CDF and the standard normal.

    For sorted values this is ``max_i max(i/n - F(v_i), F(v_i) - (i-1)/n)``,
    the true supremum over all of R (no grid approximation).
    """
    from scipy.special import ndtr

    v = sample.values
    n = sample.n
    f = ndtr(v)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def empirical_w1(sample: EmpiricalSample) -> float:
    """Order-statistic 1-Wasserstein estimate against the standard normal.

    Couples the i-th order statistic to the plotting-position quantile
    ``ndtri((i - 0.5) / n)`` and averages the absolute gaps.
    """
    from scipy.special import ndtri

    v = sample.values
    n = sample.n
    q = ndtri((np.arange(1, n + 1) - 0.5) / n)
    return float(np.mean(np.abs(v - q)))


def conditional_cov_exact(y, signs, i: int, j: int) -> float:
    """Exact covariance of rotated coordinates ``(i, j)`` over a fresh plane.

    Let ``a = Hn diag(signs) y``.  Over a fresh uniform sign plane ``e`` the
    coordinates ``U = sqrt(d) * Hn diag(e) a`` satisfy the closed form

        Cov(U_i, U_j) = sum_l signs[l] signs[l^a] y[l] y[l^a],   a = i XOR j,

    where the sum enumerates every index ``l`` (each unordered pair appears
    twice, which matches the pairwise-sum convention).  Runs in O(d).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("input must be a 1-d vector")
    d = check_dim(y.size)
    s = np.asarray(signs, dtype=np.float64)
    if s.shape != (d,):
        raise ValueError("sign plane length does not match the vector")
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError("coordinate indices out of range")
    alpha = i ^ j
    perm = np.arange(d) ^ alpha
    w = s * y
    return float(np.add.reduce(w * w[perm]))

