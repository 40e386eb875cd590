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

:func:`normal_quantile` is a scalar pure-Python port of Cephes ``ndtri``,
so the BSQ threshold needs no scipy.  ``scipy.special`` is imported only by
:func:`normal_cdf`, :func:`empirical_kolmogorov` and :func:`empirical_w1`,
inside those functions, so ``import rotquant`` loads numpy and nothing
heavier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TRIAL_CHUNK_ELEMS, _input_array, check_dim
from .rng import _input_int

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

    Accepts a numpy array or any finite iterable of real numbers; an
    iterable is read exactly once, so callers may hand in a stream.  Both
    are scanned in float64, so the squares of an integer array cannot wrap.
    """
    x = _input_array(x, "x", 1, nonempty=True, finite=True, stream=True)
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

    return ndtr(_input_array(t, "t"))


# Cephes ndtri (S. L. Moshier, Cephes Math Library): rational approximations
# in y - 0.5 on [exp(-2), 1 - exp(-2)], and in z = 1/sqrt(-2 log y) on the
# tails, one set for sqrt(-2 log y) < 8 and one beyond.  Leading coefficient
# first; the Q sets omit their leading 1.
_SQRT_2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _ratio(x: float, p: tuple, q: tuple) -> float:
    """``x * P(x) / Q(x)`` by Horner's rule, ``Q`` monic (Cephes ``polevl``
    over ``p1evl``), in Cephes' operation order."""
    num = p[0]
    for c in p[1:]:
        num = num * x + c
    den = x + q[0]
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def normal_quantile(q):
    """Standard normal quantile ``Phi^-1(q)`` for real ``q`` strictly inside
    (0, 1): a float for a scalar, elementwise for an array.

    The kernel is a port of Cephes ``ndtri``, the algorithm and coefficients
    of ``scipy.special.ndtri``, in the same operation order on
    ``math.log``/``math.sqrt``, so the two agree bit for bit; it satisfies
    ``|cdf(result) - q| <= 1e-13``.
    """
    a = _input_array(q, "q")
    out = []
    for y in a.ravel().tolist():
        if not 0.0 < y < 1.0:
            raise ValueError(f"quantile argument q must lie strictly inside (0, 1), got {y!r}")
        upper = y > 1.0 - _EXP_M2
        if upper:
            y = 1.0 - y
        if y > _EXP_M2:  # the central range, which a flipped y never reaches
            y -= 0.5
            out.append((y + y * _ratio(y * y, _P0, _Q0)) * _SQRT_2PI)
            continue
        x = math.sqrt(-2.0 * math.log(y))
        z = 1.0 / x
        tail = _ratio(z, _P1, _Q1) if x < 8.0 else _ratio(z, _P2, _Q2)
        x = x - math.log(x) / x - tail
        out.append(x if upper else -x)
    return np.array(out).reshape(a.shape) if a.ndim else out[0]


@dataclass(frozen=True)
class EmpiricalSample:
    """A sorted sample of finite draws (made by :meth:`from_values`); the
    input to the empirical metrics."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        v = np.sort(_input_array(values, "values", nonempty=True, finite=True).ravel())
        v.flags.writeable = False
        return cls(values=v)

    @property
    def n(self) -> int:
        return self.values.size


# Values per block of :func:`empirical_kolmogorov`: its three block-sized
# arrays stay under one chunk budget, whatever the sample size.
_KS_BLOCK = TRIAL_CHUNK_ELEMS // 4


def empirical_kolmogorov(sample: EmpiricalSample) -> float:
    """Exact sup-distance between the empirical CDF and the standard normal.

    For sorted values this is ``max_i max(i/n - F(v_i), F(v_i) - (i-1)/n)``,
    the true supremum over all of R (no grid approximation).  The maxima
    are taken ``_KS_BLOCK`` values at a time; a maximum does not depend on
    how its terms are grouped.
    """
    from scipy.special import ndtr

    n = sample.n
    worst = -math.inf
    for lo in range(0, n, _KS_BLOCK):
        f = ndtr(sample.values[lo:lo + _KS_BLOCK])
        steps = np.arange(lo, lo + f.size + 1, dtype=np.float64)
        steps /= n  # (i - 1)/n and i/n for the block's i
        worst = max(worst, (steps[1:] - f).max(), (f - steps[:-1]).max())
    return float(worst)


def empirical_w1(sample: EmpiricalSample) -> float:
    """Order-statistic 1-Wasserstein estimate against the standard normal.

    Couples the i-th order statistic to the plotting-position quantile
    ``ndtri((i - 0.5) / n)`` and averages the absolute gaps, all in one
    n-sized buffer (integers below 2^53 are exact as floats).
    """
    from scipy.special import ndtri

    n = sample.n
    gaps = np.arange(1, n + 1, dtype=np.float64)
    gaps -= 0.5
    gaps /= n
    ndtri(gaps, out=gaps)
    np.subtract(sample.values, gaps, out=gaps)
    np.abs(gaps, out=gaps)
    return float(np.mean(gaps))


def conditional_cov_exact(y, signs, i: int, j: int) -> float:
    """Exact covariance of rotated coordinates ``(i, j)`` over a fresh plane.

    Let ``a = Hn diag(signs) y``.  Over a fresh uniform sign plane ``e`` the
    coordinates ``U = sqrt(d) * Hn diag(e) a`` satisfy the closed form

        Cov(U_i, U_j) = sum_l signs[l] signs[l^a] y[l] y[l^a],   a = i XOR j,

    where the sum enumerates every index ``l`` (each unordered pair appears
    twice, which matches the pairwise-sum convention).  Runs in O(d).
    """
    y = _input_array(y, "y", 1)
    d = check_dim(y.size)
    s = _input_array(signs, "signs", 1, dim=d)
    perm = np.arange(d) ^ (_input_int(i, "i", 0, d - 1) ^ _input_int(j, "j", 0, d - 1))
    w = s * y
    return float(np.add.reduce(w * w[perm]))

