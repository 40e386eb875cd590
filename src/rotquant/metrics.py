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

:func:`normal_cdf` and :func:`normal_quantile` are numpy ports of Cephes
``ndtr`` and ``ndtri``, the kernels of ``scipy.special.ndtr``/``ndtri``,
in their operation order and on the C library's ``exp`` and ``log``, so
they, the BSQ threshold and both empirical metrics return scipy's bits
and no call in this module loads scipy.
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


# Cephes ndtr and ndtri (S. L. Moshier, Cephes Math Library), the kernels of
# ``scipy.special.ndtr``/``ndtri``, ported in their operation order.  Leading
# coefficient first; the denominator sets omit their leading 1.
_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): erfc underflows beyond x^2 > MAXLOG
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1; erfc(x) = exp(-x^2) P(x) / Q(x)
# for 1 <= x < 8 and exp(-x^2) R(x) / S(x) from 8 on.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# ndtri: rational approximations in y - 0.5 on [exp(-2), 1 - exp(-2)], and in
# z = 1/sqrt(-2 log y) on the tails, one set for sqrt(-2 log y) < 8 and one beyond.
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


def _ratio(x, p: tuple, q: tuple, scale):
    """``scale * P(x) / Q(x)`` by Horner's rule, ``Q`` monic (Cephes
    ``polevl`` over ``p1evl``), in Cephes' operation order, for a float or
    elementwise (in two new arrays) for an array ``x``."""
    num = p[0] * x + p[1]
    for c in p[2:]:
        num *= x
        num += c
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num *= scale
    num /= den
    return num


def _libm(fn, v):
    """``fn`` (``math.exp`` or ``math.log``) of each value of the 1-d array
    ``v``: numpy's exp and log differ from the C library's, which Cephes
    calls, in the last bit of a few percent of values."""
    return np.fromiter(map(fn, v.tolist()), np.float64, v.size)


def _ndtr(a, exact: bool = True):
    """Cephes ``ndtr`` of the 1-d array ``a``, as a new array.  With
    ``x = a/sqrt(2)``: ``0.5 + 0.5 erf(x)`` for ``|x| < 1/sqrt(2)``, else
    ``h = 0.5 erfc(|x|)``, and ``1 - h`` for ``x > 0``; ``erfc`` is
    ``1 - erf`` below 1 and 0 once ``x^2 > MAXLOG``.  With ``exact=False``
    numpy's ``exp`` stands in for the C library's, which moves a value by
    about an ulp and saves a Python call per value past ``|x| = 1``."""
    x = a * _SQRT1_2
    z = np.abs(x)
    mid = z < _SQRT1_2
    v = x[mid]
    erf = _ratio(v * v, _T, _U, v)
    erf *= 0.5
    erf += 0.5
    y = np.empty_like(x)
    y[mid] = erf
    tail = ~mid
    if not tail.any():
        return y
    v = z[tail]
    h = np.zeros_like(v)  # erfc(v) / 2
    near = v < 1.0
    w = v[near]
    erf = _ratio(w * w, _T, _U, w)
    np.subtract(1.0, erf, out=erf)
    h[near] = erf
    with np.errstate(over="ignore"):  # an infinite square is past MAXLOG too
        far = v * v <= _MAXLOG  # beyond, erfc underflows to 0
    far &= ~near
    h[np.isnan(v)] = math.nan  # Cephes returns its NaN first
    w = v[far]
    e = w * w
    np.negative(e, out=e)
    e = _libm(math.exp, e) if exact else np.exp(e)
    erfc = _ratio(w, _P, _Q, e)
    beyond = ~(w < 8.0)
    if beyond.any():
        erfc[beyond] = _ratio(w[beyond], _R, _S, e[beyond])
    h[far] = erfc
    h *= 0.5
    y[tail] = np.where(x[tail] > 0.0, 1.0 - h, h)
    return y


def _ndtri(y):
    """Cephes ``ndtri`` of the 1-d array ``y``, every value strictly inside
    (0, 1), as a new array: the central set in ``y - 0.5`` on
    ``[exp(-2), 1 - exp(-2)]``, and ``x - log(x)/x - z P(z)/Q(z)`` with
    ``x = sqrt(-2 log y)``, ``z = 1/x`` on the tails, ``y`` flipped to
    ``1 - y`` on the upper one."""
    upper = y > 1.0 - _EXP_M2
    v = np.where(upper, 1.0 - y, y)
    mid = v > _EXP_M2  # the central range, which a flipped y never reaches
    c = v[mid]
    c -= 0.5
    c2 = c * c
    r = _ratio(c2, _P0, _Q0, c2)
    r *= c
    r += c
    r *= _SQRT_2PI
    out = np.empty_like(v)
    out[mid] = r
    tail = ~mid
    if not tail.any():
        return out
    x = _libm(math.log, v[tail])
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    r = _ratio(z, _P1, _Q1, z)
    beyond = ~(x < 8.0)
    if beyond.any():
        r[beyond] = _ratio(z[beyond], _P2, _Q2, z[beyond])
    lx = _libm(math.log, x)
    lx /= x
    np.subtract(x, lx, out=x)
    x -= r
    out[tail] = np.where(upper[tail], x, -x)
    return out


# Values per block of the array kernels: a block's dozen or so temporaries
# stay within two chunk budgets, whatever the sample size.
_KS_BLOCK = TRIAL_CHUNK_ELEMS // 8
# Screening margin of :func:`empirical_kolmogorov`: millions of times the
# most that numpy's ``exp`` in place of the C library's moves a CDF value
# (an ulp or so), and small enough that few terms come within it.
_KS_SLACK = 2.0 ** -30


def _in_blocks(kernel, v) -> None:
    """Overwrite the 1-d array ``v`` with ``kernel`` of each of its
    ``_KS_BLOCK``-value blocks (the kernels are elementwise)."""
    for lo in range(0, v.size, _KS_BLOCK):
        block = v[lo:lo + _KS_BLOCK]
        block[...] = kernel(block)


def normal_cdf(t):
    """Standard normal CDF, elementwise (a numpy float for a scalar), with
    absolute error below 1e-14; the port of Cephes ``ndtr`` above, so the
    bits of ``scipy.special.ndtr``."""
    out = _input_array(t, "t").copy()
    _in_blocks(_ndtr, out.reshape(-1))
    return out[()]


def normal_quantile(q):
    """Standard normal quantile ``Phi^-1(q)`` for real ``q`` strictly inside
    (0, 1): a float for a scalar, elementwise for an array.

    The kernel is a port of Cephes ``ndtri``, the algorithm and coefficients
    of ``scipy.special.ndtri``, in the same operation order on the C
    library's ``log`` and ``sqrt``, so the two agree bit for bit; it
    satisfies ``|cdf(result) - q| <= 1e-13``.  A scalar runs the same steps
    in pure Python, which is much faster on one value than the array kernel.
    """
    a = _input_array(q, "q")
    if a.ndim:
        outside = ~((a > 0.0) & (a < 1.0))
        if not outside.any():
            out = a.copy()
            _in_blocks(_ndtri, out.reshape(-1))
            return out
        a = a[outside][0]  # the first value outside, refused below
    y = float(a)
    if not 0.0 < y < 1.0:
        raise ValueError(f"quantile argument q must lie strictly inside (0, 1), got {y!r}")
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:  # the central range, which a flipped y never reaches
        y -= 0.5
        y2 = y * y
        return (y + y * _ratio(y2, _P0, _Q0, y2)) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    x = x - math.log(x) / x - (_ratio(z, _P1, _Q1, z) if x < 8.0 else _ratio(z, _P2, _Q2, z))
    return x if upper else -x


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


def empirical_kolmogorov(sample: EmpiricalSample) -> float:
    """Exact sup-distance between the empirical CDF and the standard normal.

    For sorted values this is ``max_i max(i/n - F(v_i), F(v_i) - (i-1)/n)``,
    the true supremum over all of R (no grid approximation).  The maxima
    are taken ``_KS_BLOCK`` values at a time; a maximum does not depend on
    how its terms are grouped.  A block is screened with numpy's ``exp``,
    which moves ``F`` by an ulp or so, and only the terms within
    ``_KS_SLACK`` of its screened maximum, its true maximum among them, are
    computed exactly, so the result has the bits of the plain formula.
    """
    n = sample.n
    worst = -math.inf
    for lo in range(0, n, _KS_BLOCK):
        v = sample.values[lo:lo + _KS_BLOCK]
        f = _ndtr(v, exact=False)
        steps = np.arange(lo, lo + v.size + 1, dtype=np.float64)
        steps /= n  # (i - 1)/n and i/n for the block's i
        above, below = steps[1:] - f, f - steps[:-1]
        cut = max(above.max(), below.max()) - _KS_SLACK
        near = np.flatnonzero((above >= cut) | (below >= cut))
        f = _ndtr(v[near])
        worst = max(worst, (steps[near + 1] - f).max(), (f - steps[near]).max())
    return float(worst)


def empirical_w1(sample: EmpiricalSample) -> float:
    """Order-statistic 1-Wasserstein estimate against the standard normal.

    Couples the i-th order statistic to the plotting-position quantile
    ``ndtri((i - 0.5) / n)`` and averages the absolute gaps, all in one
    n-sized buffer (integers below 2^53 are exact as floats).
    """
    n = sample.n
    gaps = np.arange(1, n + 1, dtype=np.float64)
    gaps -= 0.5
    gaps /= n
    _in_blocks(_ndtri, gaps)
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

