import math

import numpy as np
import pytest

from rotquant.adaptive import (
    AdaptiveDecision,
    decide_layers,
    default_eta3,
    default_eta_inf,
)
from rotquant.core import RotationSpec, apply_rotation
from rotquant.metrics import BERRY_ESSEEN_C, CUBE_RATIO_C, W1_TRANSPORT_C

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
# sum of squares to the power 1.5 does.
@pytest.mark.parametrize("d, value", [(8, 1e103), (8, 1e200), (1024, 2e101)])
def test_overflowing_moments_rejected(d, value):
    with pytest.raises(ValueError, match="input must be finite and non-zero"):
        decide_layers(np.full(d, value))


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
