import math

import numpy as np
import pytest
from scipy.integrate import quad

from rotquant.bsq import (
    BsqConfig,
    BsqPayload,
    _stochastic_codes,
    bsq_decode,
    bsq_encode,
    expected_error_gaussian,
    threshold_for_p,
    tv_of_error_function,
    verify_tv_transfer,
)
from rotquant.core import RotationSpec, mean_se
from rotquant.metrics import KOLMOGOROV_2LAYER_C
from rotquant.rng import Xoshiro256pp
from _oracles import EXPECTED_ERROR_ORACLE, THRESHOLD_ORACLE

RNG = np.random.default_rng(7)


# --- configuration -----------------------------------------------------------

def test_threshold_oracle():
    for p, want in THRESHOLD_ORACLE.items():
        assert abs(threshold_for_p(p) - want) <= 1e-12


def test_threshold_limits():
    assert threshold_for_p(0.9999) > 0.0
    assert threshold_for_p(0.9999) < 1e-3
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            threshold_for_p(bad)


def test_config_levels_b3_p005():
    cfg = BsqConfig(bits=3, tail_mass=0.05)
    assert cfg.n_levels == 8
    t = THRESHOLD_ORACLE[0.05]
    assert abs(cfg.threshold - t) <= 1e-12
    assert abs(cfg.cell_width - 2.0 * t / 7.0) <= 1e-12
    assert cfg.levels.shape == (8,)
    assert abs(cfg.levels[0] + t) <= 1e-12 and abs(cfg.levels[-1] - t) <= 1e-12
    assert np.allclose(np.diff(cfg.levels), cfg.cell_width, atol=1e-12)
    assert np.allclose(cfg.levels, -cfg.levels[::-1], atol=1e-12)


def test_config_b1_two_levels():
    cfg = BsqConfig(bits=1, tail_mass=0.2)
    assert cfg.n_levels == 2
    assert abs(cfg.cell_width - 2.0 * cfg.threshold) <= 1e-15


def test_config_validation():
    with pytest.raises(ValueError):
        BsqConfig(bits=0, tail_mass=0.1)
    with pytest.raises(ValueError):
        BsqConfig(bits=21, tail_mass=0.1)
    with pytest.raises(ValueError):
        BsqConfig(bits=2, tail_mass=0.0)


def test_a_tail_mass_whose_threshold_is_not_finite_is_rejected_on_construction():
    # 1 - p/2 rounds to 1 for every p <= 2**-53, so the smallest accepted
    # mass is the next double above it, whose threshold is finite
    smallest = math.nextafter(2.0**-53, 1.0)
    for tiny in (1e-17, 2.0**-53):
        with pytest.raises(ValueError, match="tail_mass"):
            BsqConfig(bits=4, tail_mass=tiny)
    cfg = BsqConfig(bits=4, tail_mass=smallest)
    assert math.isfinite(cfg.threshold) and 8.0 < cfg.threshold < 8.3
    assert np.all(np.isfinite(cfg.levels))


# --- error function ------------------------------------------------------------

def test_error_function_one_cell_closed_form():
    cfg = BsqConfig(bits=1, tail_mass=0.2)
    t = cfg.threshold
    assert tv_of_error_function(cfg) == 2.0 * t * t  # w^2/2 with w=2t
    assert cfg.error_function(np.array([0.0]))[0] == t * t
    assert cfg.error_function(np.array([-t, t])).tolist() == [0.0, 0.0]
    assert cfg.error_function(np.array([-1.1 * t, 1.1 * t])).tolist() == [0.0, 0.0]


def test_error_function_values_inside_cells():
    cfg = BsqConfig(bits=2, tail_mass=0.01)
    lv = cfg.levels
    mid = (lv[1] + lv[2]) / 2.0
    w = cfg.cell_width
    assert abs(cfg.error_function(np.array([mid]))[0] - w * w / 4.0) <= 1e-12
    assert cfg.error_function(np.array([lv[1]]))[0] == 0.0


def test_tv_exact_law_and_halving():
    t = threshold_for_p(0.01)
    prev = None
    for b in range(1, 8):
        L = 2**b
        tv = tv_of_error_function(BsqConfig(bits=b, tail_mass=0.01))
        assert abs(tv - 2.0 * t * t / (L - 1)) <= 1e-10
        if prev is not None:
            # "doubling levels halves TV" holds asymptotically; the exact
            # ratio of this construction is (L/2 - 1)/(L - 1)
            assert abs(tv / prev - (L / 2 - 1.0) / (L - 1.0)) <= 1e-12
        prev = tv


def test_tv_from_config_matches_oracle():
    from _oracles import TV_B2_P001

    tv = tv_of_error_function(BsqConfig(bits=2, tail_mass=0.01))
    assert abs(tv - TV_B2_P001) <= 1e-12 * TV_B2_P001


def test_tv_refinement_scan():
    # numeric variation over a fine grid converges to the closed form from below
    cfg = BsqConfig(bits=3, tail_mass=0.05)
    grid = np.linspace(cfg.levels[0] - 0.5, cfg.levels[-1] + 0.5, 400_001)
    scanned = float(np.sum(np.abs(np.diff(cfg.error_function(grid)))))
    closed = tv_of_error_function(cfg)
    assert scanned <= closed + 1e-9
    assert closed - scanned <= 1e-4


def test_expected_error_oracle_and_quad():
    for (bits, p), want in EXPECTED_ERROR_ORACLE.items():
        cfg = BsqConfig(bits=bits, tail_mass=p)
        got = expected_error_gaussian(cfg)
        assert abs(got - want) <= 1e-12, (bits, p)
        num, err = quad(lambda z: cfg.error_function(np.array([z]))[0] * math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi),
                        -cfg.threshold, cfg.threshold, limit=200)
        assert abs(got - num) <= 1e-9 + 10.0 * err


def test_expected_error_monotone_in_bits():
    for p in (0.1, 0.01):
        vals = [expected_error_gaussian(BsqConfig(bits=b, tail_mass=p)) for b in range(1, 9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_expected_error_vanishes_as_p_to_1():
    assert expected_error_gaussian(BsqConfig(bits=2, tail_mass=0.9999)) <= 1e-8


# --- encode / decode -------------------------------------------------------------

def test_stochastic_rounding_unbiased():
    cfg = BsqConfig(bits=2, tail_mass=0.01)
    d = 64
    x = RNG.standard_normal(d)
    x /= np.linalg.norm(x)
    spec = RotationSpec(dim=d, layers=0, seed=0)
    trials = 3000
    acc = np.zeros(d)
    for noise_seed in range(trials):
        acc += bsq_decode(bsq_encode(x, spec, cfg, noise_seed=noise_seed))
    mean = acc / trials
    width = cfg.cell_width / math.sqrt(d)  # rotated-domain cell, un-scaled
    assert np.max(np.abs(mean - x)) <= 5.0 * width / math.sqrt(trials) * 2.0


def test_on_level_coordinates_stored_exactly():
    # a value sitting exactly on a grid level has degenerate rounding
    # probability: its fractional offset is exactly zero (or exactly one at
    # the top level), so no noise draw can move it to a neighboring code
    for bits in (1, 2, 3):
        cfg = BsqConfig(bits=bits, tail_mass=0.05)
        nl = cfg.n_levels
        want = np.arange(nl, dtype=np.uint32)
        for noise in (np.zeros(nl), np.full(nl, 1.0 - 2.0**-53)):
            assert np.array_equal(_stochastic_codes(cfg.levels.copy(), cfg, noise), want)
        for seed in range(5):
            noise = Xoshiro256pp([seed]).uniforms(nl)[0]
            assert np.array_equal(_stochastic_codes(cfg.levels.copy(), cfg, noise), want)


def test_outliers_exact_fractions_unrotated():
    d = 4
    spec = RotationSpec(dim=d, layers=0, seed=0)
    two = np.zeros(d)
    two[0] = two[1] = 1.0 / math.sqrt(2.0)
    # U = (sqrt2, sqrt2, 0, 0); t(0.2) < sqrt2 < t(0.1)
    pay = bsq_encode(two, spec, BsqConfig(bits=2, tail_mass=0.2), noise_seed=0)
    assert pay.sent_fraction == 0.5
    assert pay.outlier_idx.tolist() == [0, 1]
    pay = bsq_encode(two, spec, BsqConfig(bits=2, tail_mass=0.1), noise_seed=0)
    assert pay.sent_fraction == 0.0


def test_outliers_stored_exactly():
    d = 32
    x = RNG.standard_normal(d)
    cfg = BsqConfig(bits=2, tail_mass=0.3)
    spec = RotationSpec(dim=d, layers=2, seed=15)
    pay = bsq_encode(x, spec, cfg, noise_seed=9)
    from rotquant.core import apply_rotation

    # mirror the encoder's float sequence: rotate, then divide by the scale
    u = apply_rotation(x, spec) / pay.scale
    keep = np.abs(u) > cfg.threshold
    assert np.array_equal(pay.outlier_idx, np.nonzero(keep)[0])
    assert np.array_equal(pay.outlier_val, u[keep])
    assert np.all(np.diff(pay.outlier_idx.astype(np.int64)) > 0)


def test_pure_outlier_payload_roundtrip():
    d = 16
    x = RNG.standard_normal(d)
    cfg = BsqConfig(bits=2, tail_mass=0.9999)
    # flat rotated coordinates all exceed the microscopic threshold
    spec = RotationSpec(dim=d, layers=2, seed=100)
    pay = bsq_encode(x, spec, cfg, noise_seed=0)
    if pay.codes.size:  # exact lattice zeros can stay in range; skip those draws
        pytest.skip("rotation produced exact zeros")
    assert pay.outlier_idx.size == d
    assert np.max(np.abs(bsq_decode(pay) - x)) <= 1e-10


def test_roundtrip_error_within_cell():
    d = 256
    x = RNG.standard_normal(d)
    cfg = BsqConfig(bits=4, tail_mass=0.05)
    spec = RotationSpec(dim=d, layers=2, seed=77)
    pay = bsq_encode(x, spec, cfg, noise_seed=4)
    xhat = bsq_decode(pay)
    # orthogonal rotation: error norm = quantization error norm <= w/2 * sqrt(d) * scale
    bound = cfg.cell_width * math.sqrt(d) * pay.scale
    assert np.linalg.norm(xhat - x) <= bound


def test_zero_vector_encodes_to_zero():
    cfg = BsqConfig(bits=2, tail_mass=0.01)
    pay = bsq_encode(np.zeros(8), RotationSpec(dim=8, layers=2, seed=0), cfg, noise_seed=0)
    assert pay.scale == 0.0
    assert np.array_equal(bsq_decode(pay), np.zeros(8))


def test_payload_validation():
    cfg = BsqConfig(bits=2, tail_mass=0.01)
    spec = RotationSpec(dim=4, layers=0, seed=0)
    good = dict(spec=spec, config=cfg, scale=1.0,
                codes=np.array([0, 1], dtype=np.uint32),
                outlier_idx=np.array([1, 3], dtype=np.uint32),
                outlier_val=np.array([3.0, -3.0]))
    BsqPayload(**good)
    with pytest.raises(ValueError):
        BsqPayload(**{**good, "codes": np.array([0, 9], dtype=np.uint32)})
    with pytest.raises(ValueError):
        BsqPayload(**{**good, "outlier_idx": np.array([3, 1], dtype=np.uint32)})
    with pytest.raises(ValueError):
        BsqPayload(**{**good, "outlier_val": np.array([0.5, -3.0])})
    with pytest.raises(ValueError):
        BsqPayload(**{**good, "codes": np.array([0], dtype=np.uint32)})


def test_payload_refuses_codes_and_indices_it_would_truncate_or_wrap():
    """Codes and outlier indices take integer dtypes only, as ``vq_decode``'s
    indices do, and are range-checked before their uint32 cast."""
    pay = bsq_encode(RNG.standard_normal(64), RotationSpec(64, 2, 1),
                     BsqConfig(bits=3, tail_mass=0.05), noise_seed=2)
    fields = dict(spec=pay.spec, config=pay.config, scale=pay.scale, codes=pay.codes,
                  outlier_idx=pay.outlier_idx, outlier_val=pay.outlier_val)
    for name, bad in [("codes", pay.codes + 0.7), ("codes", pay.codes.astype(bool)),
                      ("outlier_idx", pay.outlier_idx.astype(np.float64))]:
        with pytest.raises(ValueError, match=f"must be integers: {name} has dtype"):
            BsqPayload(**{**fields, name: bad})
    wrapped = pay.codes.astype(np.int64)
    wrapped[0] += 1 << 32  # the same code once cast to uint32
    for name, bad in [("codes", wrapped), ("codes", -pay.codes.astype(np.int64) - 1),
                      ("outlier_idx", pay.outlier_idx.astype(np.int64) - (1 << 32))]:
        with pytest.raises(ValueError, match="out of range"):
            BsqPayload(**{**fields, name: bad})


# --- transfer check ---------------------------------------------------------------

def test_verify_tv_transfer_smoke():
    x = RNG.standard_normal(128)
    cfg = BsqConfig(bits=2, tail_mass=0.05)
    samples = verify_tv_transfer(x, cfg, trials=64, layers=2, master_seed=3)
    assert samples.shape == (64,)
    # each sample is a mean of e, which peaks at w^2/4 mid-cell
    assert np.all((samples >= 0.0) & (samples <= cfg.cell_width ** 2 / 4.0))
    measured, std_err = mean_se(samples)
    bound = KOLMOGOROV_2LAYER_C * tv_of_error_function(cfg) / math.sqrt(128)
    assert abs(measured - expected_error_gaussian(cfg)) <= bound + 4.0 * std_err


def test_verify_tv_transfer_degenerate_d1():
    # at d=1 every rotation is a sign flip, so each sample is e(1) or e(-1)
    cfg = BsqConfig(bits=2, tail_mass=0.01)
    samples = verify_tv_transfer(np.array([1.0]), cfg, trials=4)
    assert samples.shape == (4,)
    assert set(samples.tolist()) <= {float(cfg.error_function(z)) for z in (1.0, -1.0)}
    # the bound 1.28 TV(e) is vacuously wide
    gap = abs(samples.mean() - expected_error_gaussian(cfg))
    assert gap <= KOLMOGOROV_2LAYER_C * tv_of_error_function(cfg)
