import math
import tracemalloc

import numpy as np
import pytest

from rotquant import core
from rotquant.core import RotationSpec, apply_rotation, mean_se
from rotquant.drive import (
    cd_values,
    dme_simulate,
    drive_decode,
    drive_encode,
    measure_drive_error,
    scaling_constant_cd,
    DrivePayload,
)
from rotquant.generators import gen_adversarial
from _oracles import CD_ORACLE, reference_drive_decode

RNG = np.random.default_rng(42)


# --- scaling constant -------------------------------------------------------

def test_cd_oracle_scalar():
    for d, want in CD_ORACLE.items():
        got = scaling_constant_cd(d)
        assert abs(got - want) <= 1e-12 * want, d


def test_cd_oracle_vectorized():
    dims = np.array(sorted(CD_ORACLE))
    got = cd_values(dims)
    want = np.array([CD_ORACLE[int(d)] for d in dims])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-12


def test_cd_small_values():
    assert abs(scaling_constant_cd(1) - 1.0) <= 1e-14
    assert abs(scaling_constant_cd(2) - 2.0 * math.sqrt(2.0) / math.pi) <= 1e-14


def test_cd_monotone_to_limit():
    dims = np.array([2, 4, 8, 16, 64, 256, 1024, 1 << 14, 1 << 20])
    vals = cd_values(dims)
    assert np.all(np.diff(vals) < 0.0)  # decreasing towards sqrt(2/pi)
    assert vals[-1] > math.sqrt(2.0 / math.pi)


def test_cd_expansion_window():
    # |c_d - sqrt(2/pi)(1 + 1/(4d))| <= 10/d^2 on a log-spaced subset
    for d in (16, 100, 1000, 12345, 1 << 20):
        approx = math.sqrt(2.0 / math.pi) * (1.0 + 1.0 / (4.0 * d))
        assert abs(scaling_constant_cd(d) - approx) <= 10.0 / d**2


def test_cd_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaling_constant_cd(0)
    with pytest.raises(ValueError):
        cd_values(np.array([4, -1]))


# --- encode / decode ----------------------------------------------------------

def test_biased_scale_is_l1_mean():
    x = RNG.standard_normal(256)
    spec = RotationSpec(dim=256, layers=2, seed=31)
    p = drive_encode(x, spec, mode="biased")
    y = apply_rotation(x, spec)
    assert abs(p.scale - np.abs(y).mean()) <= 1e-15
    assert p.mode == "biased"


def test_unbiased_scale_formula():
    d = 4096
    x = RNG.standard_normal(d)
    x /= np.linalg.norm(x)
    p = drive_encode(x, RotationSpec(dim=d, layers=2, seed=3), mode="unbiased")
    assert abs(p.scale - 1.0 / (scaling_constant_cd(d) * 64.0)) <= 1e-15


def test_decode_norm_identity():
    x = RNG.standard_normal(1024)
    for mode in ("biased", "unbiased"):
        p = drive_encode(x, RotationSpec(dim=1024, layers=2, seed=5), mode=mode)
        xhat = drive_decode(p)
        assert abs(np.linalg.norm(xhat) - p.scale * 32.0) <= 1e-10 * max(1.0, p.scale * 32.0)


def test_d1_roundtrip_exact():
    for seed in (0, 1, 99):
        for c in (2.75, -0.3):
            spec = RotationSpec(dim=1, layers=2, seed=seed)
            p = drive_encode(np.array([c]), spec, mode="biased")
            assert drive_decode(p)[0] == c


def test_biased_projection_identity_per_realization():
    """vnmse = 1 - |R xu|_1^2 / d holds exactly for each realized rotation."""
    d = 512
    x = RNG.standard_normal(d)
    xu = x / np.linalg.norm(x)
    for seed in range(5):
        spec = RotationSpec(dim=d, layers=2, seed=seed)
        p = drive_encode(x, spec, mode="biased")
        xhat = drive_decode(p)
        vnmse = np.sum((xhat - x) ** 2) / np.sum(x**2)
        y = apply_rotation(xu, spec)
        assert abs(vnmse - (1.0 - np.linalg.norm(y, 1) ** 2 / d)) <= 1e-10


def test_unbiased_estimator_mean_approaches_x():
    d = 64
    x = np.zeros(d)
    x[0] = 1.0
    spec = RotationSpec(dim=d, layers=2, seed=0)
    trials = 4000
    acc = np.zeros(d)
    for i in range(trials):
        p = drive_encode(x, RotationSpec(dim=d, layers=2, seed=int(np.uint64(spec.seed) + np.uint64(i))), mode="unbiased")
        acc += drive_decode(p)
    mean = acc / trials
    # per-coordinate se is ~ sqrt(0.57/trials); allow 5 sigma on the norm gap
    assert np.linalg.norm(mean - x) <= 5.0 * math.sqrt(0.57 * d / trials)


def test_payload_validation():
    spec = RotationSpec(dim=16, layers=1, seed=0)
    with pytest.raises(ValueError):
        DrivePayload(mode="nope", spec=spec, scale=1.0, sign_bits=b"\x00\x00")
    with pytest.raises(ValueError):
        DrivePayload(mode="biased", spec=spec, scale=-1.0, sign_bits=b"\x00\x00")
    with pytest.raises(ValueError):
        DrivePayload(mode="biased", spec=spec, scale=1.0, sign_bits=b"\x00")
    with pytest.raises(ValueError):
        drive_encode(np.ones(16), spec, mode="nearest")
    # the zero vector is representable: scale 0, exact zero reconstruction
    z = drive_encode(np.zeros(16), spec, mode="biased")
    assert z.scale == 0.0
    assert np.array_equal(drive_decode(z), np.zeros(16))


def test_payload_rejects_nonzero_padding_bits():
    # d = 4 uses bits 0-3 of the only sign byte; the codec would refuse 0xf3
    spec = RotationSpec(dim=4, layers=1, seed=3)
    with pytest.raises(ValueError, match="padding"):
        DrivePayload(mode="biased", spec=spec, scale=1.0, sign_bits=b"\xf3")
    assert DrivePayload(mode="biased", spec=spec, scale=1.0, sign_bits=b"\x03").sign_bits == b"\x03"


@pytest.mark.parametrize("mode", ["biased", "unbiased"])
@pytest.mark.parametrize("layers", range(4))
def test_decode_matches_the_reference_decode_bit_for_bit(layers, mode):
    rng = np.random.default_rng(layers)
    for p in range(17):
        d = 1 << p
        x = rng.standard_normal(d)
        pay = drive_encode(x, RotationSpec(dim=d, layers=layers, seed=100 + p), mode=mode)
        got = drive_decode(pay)
        assert got.shape == (d,) and got.tobytes() == reference_drive_decode(pay).tobytes()


# --- error measurement ----------------------------------------------------------

def test_measure_drive_error_deterministic_case():
    # layers=0, d=1: reconstruction is exact, vnmse exactly 0 with zero spread
    rep = measure_drive_error(np.array([3.0]), RotationSpec(dim=1, layers=0, seed=0),
                              mode="biased", trials=10)
    assert rep.vnmse == 0.0
    assert rep.std_err == 0.0


@pytest.mark.parametrize("estimate", [
    lambda mode: measure_drive_error(np.ones(8), RotationSpec(8, 2, 1), mode, 1),
    lambda mode: dme_simulate(np.ones((2, 8)), RotationSpec(8, 2, 1), mode, 1),
], ids=["measure_drive_error", "dme_simulate"])
def test_error_estimators_reject_unknown_mode_first(estimate):
    # one trial is also invalid: the mode is checked before any trial work
    with pytest.raises(ValueError, match="mode must be one of"):
        estimate("garbage")


def test_measure_drive_error_biased_magnitude():
    x = RNG.standard_normal(1024)
    rep = measure_drive_error(x, RotationSpec(dim=1024, layers=2, seed=1), mode="biased",
                              trials=300)
    assert 0.30 <= rep.vnmse <= 0.45
    assert rep.eq1_vnmse is not None
    assert abs(rep.vnmse - rep.eq1_vnmse) <= 4.0 * rep.std_err + 1e-9


def test_measure_drive_error_is_reproducible():
    x = RNG.standard_normal(256)
    spec = RotationSpec(dim=256, layers=2, seed=8)
    a = measure_drive_error(x, spec, mode="unbiased", trials=64)
    b = measure_drive_error(x, spec, mode="unbiased", trials=64)
    assert a == b


def test_dme_single_client_equals_drive_error():
    # an input whose BLAS dot product and pairwise sum of squares differ, so
    # both estimators must take the norm from the same expression
    x = np.random.default_rng(0).standard_normal(4096)
    assert np.dot(x, x) != np.add.reduce(x * x)
    spec = RotationSpec(dim=4096, layers=2, seed=2024)
    drive = measure_drive_error(x, spec, mode="unbiased", trials=40)
    dme = dme_simulate([x], spec, mode="unbiased", trials=40)
    assert dme.shape == (40,)
    assert mean_se(dme) == (drive.vnmse, drive.std_err)


@pytest.mark.parametrize("estimate", [
    lambda: measure_drive_error(gen_adversarial("one_hot", 1024),
                                RotationSpec(1024, 2, 1), "unbiased", 4096),
    lambda: dme_simulate(np.tile(gen_adversarial("one_hot", 4096), (16, 1)),
                         RotationSpec(4096, 2, 1), "unbiased", 64),
], ids=["measure_drive_error", "dme_simulate"])
def test_drive_estimators_keep_few_chunk_sized_arrays(estimate):
    # both runs are 16 full chunks at the default budget; tracemalloc sees
    # numpy's buffers, so this bounds what a chunk keeps alive at once
    tracemalloc.start()
    try:
        estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * core.TRIAL_CHUNK_ELEMS * 8


def test_dme_zero_error_scalar_clients():
    xs = [np.array([1.5]), np.array([1.5]), np.array([1.5])]
    per_trial = dme_simulate(xs, RotationSpec(dim=1, layers=2, seed=4), mode="biased",
                             trials=20)
    assert per_trial.shape == (20,) and not per_trial.any()


def test_dme_averaging_shrinks_error():
    x = np.zeros(256)
    x[0] = 1.0
    spec = RotationSpec(dim=256, layers=2, seed=11)
    one = dme_simulate([x], spec, mode="unbiased", trials=150)
    many = dme_simulate([x] * 8, spec, mode="unbiased", trials=150)
    assert mean_se(many)[0] < mean_se(one)[0] / 4.0
