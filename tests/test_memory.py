"""Memory as a contract: a public entry point's traced allocation peak is at
most ``C`` times its input plus output bytes, plus ``K`` chunk budgets.

``C = 3`` leaves room for the input, the output and one working copy of
either; ``K = 1`` is one ``TRIAL_CHUNK_ELEMS`` chunk of float64 working
arrays (2 MiB).  Both are fixed here once.  Each case sets up outside the
trace, so the peak is what the call itself allocates.  A case may name
bytes its call draws and must hold to do its work, such as the training
samples of a codebook; they count as input.  A case that breaks the
contract today is marked ``xfail`` with the reason; its fix removes the
mark.
"""

import tracemalloc

import numpy as np
import pytest

from rotquant.bsq import BsqConfig, BsqPayload, bsq_decode, bsq_encode
from rotquant.codec import deserialize, serialize
from rotquant.core import TRIAL_CHUNK_ELEMS, RotationSpec
from rotquant.drive import DrivePayload, dme_simulate, drive_decode, drive_encode, measure_drive_error
from rotquant.generators import gen_adversarial
from rotquant.rng import Xoshiro256pp, derive_seeds
from rotquant.metrics import EmpiricalSample, empirical_kolmogorov, empirical_w1
from rotquant.vq import REPORT_CODEBOOK, Codebook, gaussian_distortions, train_gaussian_codebook, vq_encode

C = 3
K = 1


def _nbytes(obj) -> int:
    """Array bytes held by an argument or a result; 0 for specs, configs,
    scalars and reports."""
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, BsqPayload):
        return obj.codes.nbytes + obj.outlier_idx.nbytes + obj.outlier_val.nbytes
    if isinstance(obj, DrivePayload):
        return len(obj.sign_bits)
    if isinstance(obj, Codebook):
        return obj.centroids.nbytes
    if isinstance(obj, EmpiricalSample):
        return obj.values.nbytes
    if isinstance(obj, bytes):
        return len(obj)
    return obj.nbytes if isinstance(obj, np.ndarray) else 0


def _bsq_payload(d: int, bits: int) -> BsqPayload:
    x = np.random.default_rng(d + bits).standard_normal(d)
    return bsq_encode(x, RotationSpec(d, 2, 1), BsqConfig(bits=bits, tail_mass=0.01), 2)


def _gaussians():
    gen = Xoshiro256pp(derive_seeds(2024, 0, 1 << 17))
    return gen.gaussians, (4,)


def _bsq_encode():
    d = 1 << 20
    x = np.random.default_rng(0).standard_normal(d)
    return bsq_encode, (x, RotationSpec(d, 2, 1), BsqConfig(bits=4, tail_mass=0.01), 2)


def _bsq_serialize():
    return serialize, (_bsq_payload(1 << 20, 8),)


def _drive_payload(layers: int) -> DrivePayload:
    d = 1 << 20
    x = np.random.default_rng(layers).standard_normal(d)
    return drive_encode(x, RotationSpec(d, layers, 1), "unbiased")


def _drive_encode():
    d = 1 << 20
    x = np.random.default_rng(0).standard_normal(d)
    return drive_encode, (x, RotationSpec(d, 3, 1), "biased")


def _drive_decode(layers):
    return lambda: (drive_decode, (_drive_payload(layers),))


def _drive_deserialize():
    return deserialize, (serialize(_drive_payload(2)),)


def _bsq_deserialize(bits):
    return lambda: (deserialize, (serialize(_bsq_payload(1 << 20, bits)),))


def _bsq_decode():
    return bsq_decode, (_bsq_payload(1 << 20, 4),)


def _vq_encode():
    d = 1 << 20
    x = np.random.default_rng(0).standard_normal(d)
    return vq_encode, (x, RotationSpec(d, 3, 1), REPORT_CODEBOOK)


def _train_codebook():
    # the (1 << 17) x 4 drawn samples, held once, count as input
    return train_gaussian_codebook, (4, 16, 2024), (1 << 17) * 4 * 8


def _gaussian_distortions():
    return gaussian_distortions, (REPORT_CODEBOOK, 8000)


def _empirical(metric):
    def case():
        n = 1 << 20
        return metric, (EmpiricalSample.from_values(np.random.default_rng(n).standard_normal(n)),)
    return case


def _measure_drive_error():
    d = 1 << 18
    return measure_drive_error, (gen_adversarial("one_hot", d), RotationSpec(d, 2, 1),
                                 "unbiased", 8)


def _dme_simulate():
    clients = np.tile(gen_adversarial("one_hot", 4096), (256, 1))
    return dme_simulate, (clients, RotationSpec(4096, 2, 1), "unbiased", 8)


def _xfail(reason):
    return pytest.mark.xfail(reason=reason, strict=True)


@pytest.mark.parametrize("case", [
    pytest.param(_gaussians, id="gaussians-2^17x4"),
    pytest.param(_drive_encode, id="drive_encode-2^20"),
    *(pytest.param(_drive_decode(layers), id=f"drive_decode-2^20-{layers}-layers")
      for layers in (1, 3)),
    pytest.param(_drive_deserialize, id="drive_deserialize-2^20"),
    pytest.param(_bsq_deserialize(4), id="bsq_deserialize-2^20-4bit"),
    pytest.param(_bsq_deserialize(8), id="bsq_deserialize-2^20-8bit", marks=_xfail(
        "_unpack_codes expands the codes to a (d, bits) array")),
    pytest.param(_bsq_encode, id="bsq_encode-2^20-4bit"),
    pytest.param(_bsq_serialize, id="bsq_serialize-2^20-8bit", marks=_xfail(
        "_pack_codes expands the codes to a (d, bits) array")),
    pytest.param(_dme_simulate, id="dme_simulate-256-clients", marks=_xfail(
        "map_trials never splits a trial's n_clients x d rows")),
    pytest.param(_bsq_decode, id="bsq_decode-2^20-4bit"),
    pytest.param(_vq_encode, id="vq_encode-2^20"),
    pytest.param(_train_codebook, id="train_gaussian_codebook-4x16"),
    pytest.param(_gaussian_distortions, id="gaussian_distortions-4x16"),
    pytest.param(_empirical(empirical_kolmogorov), id="empirical_kolmogorov-2^20"),
    pytest.param(_empirical(empirical_w1), id="empirical_w1-2^20"),
    pytest.param(_measure_drive_error, id="measure_drive_error-2^18", marks=_xfail(
        "a map_trials chunk holds at least TRIAL_BLOCK trials of d rows, "
        "above the chunk budget once d > 2^16")),
])
def test_peak_allocation_is_bounded_by_io_and_the_chunk_budget(case):
    fn, args, *drawn = case()
    inputs = sum(_nbytes(a) for a in args) + sum(drawn)
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = C * (inputs + _nbytes(out)) + K * TRIAL_CHUNK_ELEMS * 8
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"
