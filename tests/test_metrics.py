import math

import numpy as np
import pytest

from rotquant.adaptive import decide_layers
from rotquant.metrics import (
    BERRY_ESSEEN_C,
    CUBE_RATIO_C,
    KOLMOGOROV_2LAYER_C,
    OUTLIER_2LAYER_C,
    W1_TRANSPORT_C,
    EmpiricalSample,
    conditional_cov_exact,
    empirical_kolmogorov,
    empirical_w1,
    moment_scan,
    normal_cdf,
    normal_quantile,
)
from _oracles import NORMAL_CDF_ORACLE, QUANTILE_995, THRESHOLD_ORACLE

RNG = np.random.default_rng(1717)


def test_constants():
    assert CUBE_RATIO_C == 3.0**0.75
    assert BERRY_ESSEEN_C == 0.5606
    assert KOLMOGOROV_2LAYER_C == 1.28
    assert W1_TRANSPORT_C == 3.0
    assert OUTLIER_2LAYER_C == 2.56


# --- moment scan ----------------------------------------------------------

def test_moment_scan_direct_arithmetic():
    s = moment_scan(np.array([3.0, 4.0, 0.0, 0.0]))
    assert (s.sum_sq, s.sum_abs_cubed, s.max_sq, s.count) == (25.0, 91.0, 16.0, 4)


def test_moment_scan_one_hot():
    e0 = np.zeros(8)
    e0[0] = 1.0
    s = moment_scan(e0)
    assert (s.sum_sq, s.sum_abs_cubed, s.max_sq) == (1.0, 1.0, 1.0)


def test_moment_scan_flat_pm_half():
    x = np.array([0.5, -0.5, 0.5, -0.5])
    s = moment_scan(x)
    assert (s.sum_sq, s.sum_abs_cubed, s.max_sq) == (1.0, 0.5, 0.25)
    assert decide_layers(x).rho3 == 0.5


def test_moment_scan_stream_single_pass():
    seen = []

    def gen():
        for v in (3.0, 4.0, 0.0, 0.0):
            seen.append(v)
            yield v

    s = moment_scan(gen())
    assert (s.sum_sq, s.sum_abs_cubed, s.max_sq, s.count) == (25.0, 91.0, 16.0, 4)
    assert len(seen) == 4  # consumed exactly once, no second pass possible


def test_integer_input_is_scanned_and_decided_as_float64():
    """Squares and cubes of large integers would wrap in integer arithmetic
    (2^31 cubed does not fit in 64 bits)."""
    for x in (np.array([4_000_000_000, 3_000_000_000, 1, 1]),
              np.array([2**31, 2**31 - 1, 5, 7]), np.arange(1, 9, dtype=np.int32)):
        assert moment_scan(x) == moment_scan(x.astype(np.float64))
        assert decide_layers(x) == decide_layers(x.astype(np.float64))


def test_moment_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        moment_scan(np.array([]))
    with pytest.raises(ValueError):
        moment_scan(np.array([1.0, np.nan]))


def test_rho3_linf_examples():
    e0 = np.zeros(16)
    e0[0] = 1.0
    assert decide_layers(e0).rho3 == 1.0
    assert decide_layers(e0).linf_sq == 1.0
    d = 64
    flat = decide_layers(np.full(d, 1.0 / math.sqrt(d)))
    assert abs(flat.rho3 - 1.0 / math.sqrt(d)) <= 1e-15
    assert abs(flat.linf_sq - 1.0 / d) <= 1e-18
    two = np.zeros(4)
    two[0] = two[1] = 1.0 / math.sqrt(2.0)
    two = decide_layers(two)
    assert abs(two.rho3 - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(two.linf_sq - 0.5) <= 1e-15


def test_rho3_scale_invariant():
    x = RNG.standard_normal(33)
    assert abs(decide_layers(x).rho3 - decide_layers(137.0 * x).rho3) <= 1e-13
    assert abs(decide_layers(x).linf_sq - decide_layers(0.01 * x).linf_sq) <= 1e-15
    with pytest.raises(ValueError):
        decide_layers(np.zeros(4))


# --- normal distribution helpers -------------------------------------------

def test_normal_cdf_oracle():
    for t, want in NORMAL_CDF_ORACLE:
        assert abs(float(normal_cdf(t)) - want) <= 1e-14


def test_normal_cdf_symmetry():
    for t in (0.5, 1.0, 2.0, 4.0):
        assert abs(float(normal_cdf(t)) + float(normal_cdf(-t)) - 1.0) <= 1e-13


def test_normal_quantile():
    assert abs(float(normal_quantile(0.995)) - QUANTILE_995) <= 1e-12
    for q in (0.01, 0.25, 0.5, 0.9, 0.995):
        assert abs(float(normal_cdf(normal_quantile(q))) - q) <= 1e-13


def test_normal_quantile_is_scipy_ndtri_bit_for_bit():
    """The Cephes port against ``scipy.special.ndtri``, the reference kernel:
    a dense seeded grid over (0, 1), both tails, each side of the three
    branch points (y = exp(-2), 1 - exp(-2), and sqrt(-2 log y) = 8, so
    y = exp(-32)) and every tail mass the runners and tests use."""
    from scipy.special import ndtri

    tails = 10.0 ** -np.linspace(3.0, 300.0, 2000)
    corners = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),
                        1.0 - math.exp(-32.0), 0.5, 5e-324])
    masses = [*THRESHOLD_ORACLE, 0.1, 0.3, 0.9999]
    q = np.concatenate([
        np.random.default_rng(20240601).random(50_000),
        tails, 1.0 - 10.0 ** -np.linspace(3.0, 16.0, 2000), [1.0 - 1e-16],
        corners, np.nextafter(corners, 0.0), np.nextafter(corners, 1.0),
        [1.0 - p / 2.0 for p in masses], [p / 2.0 for p in masses],
    ])
    q = q[(q > 0.0) & (q < 1.0)]
    got = np.array([normal_quantile(v) for v in q.tolist()])
    want = ndtri(q)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, list(zip(q[bad[:5]], got[bad[:5]], want[bad[:5]]))
    assert np.array_equal(normal_quantile(q), want)
    assert type(normal_quantile(0.5)) is float


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
def test_normal_quantile_rejects_arguments_outside_the_open_unit_interval(q):
    with pytest.raises(ValueError, match="strictly inside"):
        normal_quantile(q)


# --- empirical distances ----------------------------------------------------

def test_sample_size_is_read_off_its_values():
    # a separate size field once let EmpiricalSample(values=[3, -1], n=5)
    # give a Kolmogorov distance of 0.9987 without complaint
    sample = EmpiricalSample.from_values([3.0, -1.0])
    assert sample.n == 2 and type(sample.n) is int
    with pytest.raises(TypeError):
        EmpiricalSample(values=sample.values, n=5)


def test_kolmogorov_single_zero():
    assert empirical_kolmogorov(EmpiricalSample.from_values([0.0])) == 0.5


def test_kolmogorov_point_mass_far_right():
    # just left of the atom: F_n = 0 while Phi(10) ~ 1, so the sup is Phi(10)
    ks = empirical_kolmogorov(EmpiricalSample.from_values(np.full(10, 10.0)))
    assert abs(ks - float(normal_cdf(10.0))) <= 1e-12
    assert ks > 0.999999


def test_kolmogorov_grid_scan_oracle():
    """The closed-form order-statistic K-S must agree with a brute scan of
    |F_n(t) - Phi(t)| over a dense grid (grid value is a lower bound that
    approaches the sup)."""
    values = np.array([-1.3, -0.2, 0.1, 0.4, 0.9, 2.2, 2.3])
    ks = empirical_kolmogorov(EmpiricalSample.from_values(values))
    grid = np.linspace(-6.0, 6.0, 2_000_001)
    fn = np.searchsorted(np.sort(values), grid, side="right") / values.size
    scan = np.max(np.abs(fn - normal_cdf(grid)))
    assert scan <= ks + 1e-12
    assert ks - scan <= 1e-5


def test_kolmogorov_exact_quantiles_are_optimal():
    n = 1000
    v = normal_quantile((np.arange(n) + 0.5) / n)
    # quantile placement: K-S is exactly 1/(2n)
    assert abs(empirical_kolmogorov(EmpiricalSample.from_values(v)) - 0.5 / n) <= 1e-12


def test_w1_exact_quantiles_zero():
    n = 500
    v = normal_quantile((np.arange(n) + 0.5) / n)
    assert empirical_w1(EmpiricalSample.from_values(v)) <= 1e-12


def test_w1_translation():
    n = 500
    v = normal_quantile((np.arange(n) + 0.5) / n)
    for c in (0.25, -1.5):
        assert abs(empirical_w1(EmpiricalSample.from_values(v + c)) - abs(c)) <= 1e-12


def test_w1_and_ks_on_true_normal_draws():
    n = 200_000
    v = RNG.standard_normal(n)
    sample = EmpiricalSample.from_values(v)
    # DKW band at alpha=1e-6 and a generous W1 envelope
    assert empirical_kolmogorov(sample) <= math.sqrt(math.log(2e6) / (2 * n))
    assert empirical_w1(sample) <= 5.0 / math.sqrt(n)


@pytest.mark.parametrize("n", [1, 7, (1 << 20) + 3])
def test_empirical_metrics_match_their_whole_vector_expressions(n):
    # the blocked K-S maximum and the one-buffer W1 give the bits of the
    # plain formulas
    from scipy.special import ndtr, ndtri

    sample = EmpiricalSample.from_values(np.random.default_rng(n).standard_normal(n))
    v = sample.values
    f = ndtr(v)
    ks = float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(0, n) / n).max()))
    w1 = float(np.mean(np.abs(v - ndtri((np.arange(1, n + 1) - 0.5) / n))))
    assert empirical_kolmogorov(sample).hex() == ks.hex()
    assert empirical_w1(sample).hex() == w1.hex()


# --- conditional covariance --------------------------------------------------

def test_conditional_cov_one_hot_is_zero():
    y = np.zeros(8)
    y[3] = 2.0
    s = np.ones(8)
    for i, j in ((0, 1), (0, 3), (3, 5)):
        assert conditional_cov_exact(y, s, i, j) == 0.0


def test_conditional_cov_xor_identity():
    d = 16
    y = RNG.standard_normal(d)
    s = np.where(RNG.standard_normal(d) < 0, -1.0, 1.0)
    w = s * y
    for i, j in ((0, 1), (2, 9), (5, 10)):
        alpha = i ^ j
        want = float(sum(w[m] * w[m ^ alpha] for m in range(d)))
        got = conditional_cov_exact(y, s, i, j)
        assert abs(got - want) <= 1e-12
        assert got == conditional_cov_exact(y, s, j, i)


def test_conditional_cov_two_spike_hand_value():
    d = 8
    y = np.zeros(d)
    y[0] = y[1] = 1.0 / math.sqrt(2.0)
    s = np.ones(d)
    s[1] = -1.0
    got = conditional_cov_exact(y, s, 0, 1)
    assert abs(got + 1.0) <= 1e-15  # 2 * s0 s1 * (1/sqrt 2)^2 = -1


def test_conditional_cov_diagonal_and_validation():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    s = np.array([1.0, -1.0, 1.0, -1.0])
    # i == j degenerates to the second moment sum w_m^2 = |y|^2
    assert conditional_cov_exact(y, s, 1, 1) == float(np.dot(y, y))
    with pytest.raises(ValueError):
        conditional_cov_exact(y, s, 0, 4)
    with pytest.raises(ValueError):
        conditional_cov_exact(np.ones(3), np.ones(3), 0, 1)
