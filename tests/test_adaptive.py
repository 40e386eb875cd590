import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquant.adaptive import (
    AdaptiveDecision,
    decide_layers,
    default_eta3,
    default_eta_inf,
)
from rotquant.core import RotationSpec, apply_rotation
from rotquant.metrics import BERRY_ESSEEN_C, CUBE_RATIO_C, W1_TRANSPORT_C, moment_scan

RNG = np.random.default_rng(23)


def test_default_thresholds():
    assert default_eta3(4096) == CUBE_RATIO_C / 64.0
    assert default_eta_inf(1024) == 2.0 * math.log(2048.0) / 1024.0


def test_one_hot_takes_the_slow_paths():
    x = np.zeros(1024)
    x[0] = 1.0
    dec = decide_layers(x)
    assert (dec.scalar_layers, dec.vq_layers) == (2, 3)
    assert dec.rho3 == 1.0
    assert dec.linf_sq == 1.0


def test_flat_takes_the_fast_paths():
    dec = decide_layers(np.full(1024, -0.25))
    assert (dec.scalar_layers, dec.vq_layers) == (1, 2)
    assert math.isclose(dec.rho3, 1.0 / 32.0, rel_tol=1e-12)
    assert math.isclose(dec.linf_sq, 1.0 / 1024.0, rel_tol=1e-12)


def test_rotated_one_hot_takes_the_fast_paths():
    x = np.zeros(1024)
    x[0] = 1.0
    y = apply_rotation(x, RotationSpec(dim=1024, layers=1, seed=3))
    dec = decide_layers(y)
    assert (dec.scalar_layers, dec.vq_layers) == (1, 2)


def test_threshold_boundaries_are_inclusive():
    dec = decide_layers(np.ones(256))
    # rho3 = 1/16 exactly; a threshold equal to it still licenses one layer
    assert decide_layers(np.ones(256), eta3=dec.rho3).scalar_layers == 1
    assert decide_layers(np.ones(256), eta3=dec.rho3 * (1 - 1e-12)).scalar_layers == 2
    assert decide_layers(np.ones(256), eta_inf=dec.linf_sq).vq_layers == 2
    assert decide_layers(np.ones(256), eta_inf=dec.linf_sq * (1 - 1e-12)).vq_layers == 3


def test_decision_is_scale_and_permutation_invariant():
    x = RNG.standard_normal(512)
    base = decide_layers(x)
    scaled = decide_layers(137.0 * x)
    assert math.isclose(scaled.rho3, base.rho3, rel_tol=1e-12)
    assert math.isclose(scaled.linf_sq, base.linf_sq, rel_tol=1e-12)
    perm = decide_layers(x[RNG.permutation(512)])
    assert math.isclose(perm.rho3, base.rho3, rel_tol=1e-12)
    assert math.isclose(perm.linf_sq, base.linf_sq, rel_tol=1e-12)


def test_accepts_a_stream_read_once():
    d = 4096
    seen = {"n": 0}

    def gen():
        for i in range(d):
            seen["n"] += 1
            yield math.sin(1.0 + i)

    dec = decide_layers(gen())
    assert seen["n"] == d
    ref = decide_layers(np.sin(1.0 + np.arange(d)))
    assert math.isclose(dec.rho3, ref.rho3, rel_tol=1e-9)


def test_zero_input_rejected():
    with pytest.raises(ValueError, match="input must be finite and non-zero"):
        decide_layers(np.zeros(64))


# The sum of cubes overflows; the sum of squares does; neither does, but the
# sum of squares to the power 1.5 does; the squares are subnormal and the
# cubes zero; the entries themselves are subnormal.
@pytest.mark.parametrize("d, value", [(8, 1e103), (8, 1e200), (1024, 2e101),
                                      (8, 1e-160), (8, 1e-320)])
def test_overflowing_moments_are_rescaled(d, value):
    x = np.full(d, value)
    x[0] *= 3.0
    ref = np.ones(d)
    ref[0] = 3.0
    dec, want = decide_layers(x), decide_layers(ref)
    assert (dec.scalar_layers, dec.vq_layers) == (want.scalar_layers, want.vq_layers)
    assert math.isclose(dec.rho3, want.rho3, rel_tol=1e-12)
    assert math.isclose(dec.linf_sq, want.linf_sq, rel_tol=1e-12)


def test_moments_rescale_only_when_they_fail():
    """An input whose moments scan cleanly keeps its bits: ``x * 2^-530``
    (squares subnormal) takes the rescaled path and lands on the ratios of a
    ``2^e``-scaled copy, while ``x`` itself is scanned as given."""
    x = RNG.standard_normal(256)
    scaled = decide_layers(np.ldexp(x, -530))
    _, e = math.frexp(float(np.max(np.abs(x))))
    assert scaled == decide_layers(np.ldexp(x, -e))
    stats = moment_scan(x)
    base = decide_layers(x)
    assert base.rho3 == stats.sum_abs_cubed / stats.sum_sq ** 1.5
    assert base.linf_sq == stats.max_sq / stats.sum_sq


def _exponent_range(x):
    """The ``k`` for which no entry of ``x * 2^k`` is subnormal or infinite."""
    nz = np.abs(x[x != 0.0])
    lo = math.frexp(float(nz.min()))[1]  # min |x| in [2^(lo-1), 2^lo)
    hi = math.frexp(float(nz.max()))[1]
    return -1021 - lo, 1024 - hi


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
                min_size=1, max_size=64).filter(lambda v: any(v)),
       st.floats(min_value=0.0, max_value=1.0))
def test_decision_is_invariant_to_power_of_two_scaling(values, where):
    """Scaling by any ``2^k`` that leaves no entry subnormal or infinite
    gives the same decision, whether or not the squares or cubes of the
    scaled input overflow or underflow."""
    x = np.array(values)
    lo, hi = _exponent_range(x)
    k = lo + round(where * (hi - lo))
    base, scaled = decide_layers(x), decide_layers(np.ldexp(x, k))
    assert (scaled.scalar_layers, scaled.vq_layers) == (base.scalar_layers, base.vq_layers)
    assert math.isclose(scaled.rho3, base.rho3, rel_tol=1e-12)
    assert math.isclose(scaled.linf_sq, base.linf_sq, rel_tol=1e-12)


def test_bounds_follow_the_thresholds():
    dec = decide_layers(np.ones(4096))
    assert dec.dk_bound == BERRY_ESSEEN_C * dec.eta3
    assert dec.w1_bound == W1_TRANSPORT_C * dec.eta3
    assert dec.rms_cov_bound == 2.0 * math.sqrt(dec.eta_inf)
    keys = set(dec.to_dict())
    assert keys == {"rho3", "linf_sq", "eta3", "eta_inf", "scalar_layers",
                    "vq_layers", "dk_bound", "w1_bound", "rms_cov_bound"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_thresholds_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="eta3 must be finite and positive"):
        decide_layers(np.ones(8), eta3=bad)
    with pytest.raises(ValueError, match="eta_inf must be finite and positive"):
        decide_layers(np.ones(8), eta_inf=bad)


def test_decision_is_frozen():
    dec = decide_layers(np.ones(64))
    with pytest.raises(AttributeError):
        dec.rho3 = 0.0
    assert isinstance(dec, AdaptiveDecision)
