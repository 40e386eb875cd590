"""The one input gate, seen from every public entry point that takes a
vector or matrix: bool, integer and float dtypes behave as the same values
in float64, bit for bit; every other dtype raises ``ValueError`` naming the
argument before any work.  Index and code fields take integer dtypes only.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotquant as rq
from rotquant import adaptive, core, experiments, metrics, vq
from rotquant.metrics import EmpiricalSample

D = 16
SPEC = rq.RotationSpec(D, 2, 3)
CFG = rq.BsqConfig(bits=3, tail_mass=0.05)
CB = rq.train_gaussian_codebook(2, 4, 7, n_samples=1000)
Y = np.random.default_rng(0).standard_normal(D)
SIGNS = 1.0 - 2.0 * (np.arange(D) % 3 == 0)
CODES = [0, 7, 1, 6, 2, 5, 3, 4, 0, 1, 2, 3, 4, 5]
OUTLIER_IDX = [3, 9]

REAL = ("bool", "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
        "uint64", "float16", "float32", "float64")
INTEGER = REAL[1:9]


def _vq_encode(a):
    idx, scale = rq.vq_encode(a, SPEC, CB)
    return idx.tobytes() + struct.pack("<d", scale)


def _bsq_payload(codes=CODES, outlier_idx=OUTLIER_IDX, outlier_val=(2.5, -3.0)):
    return rq.serialize(rq.BsqPayload(SPEC, CFG, 1.0, codes, outlier_idx, outlier_val))


# (entry point, the argument under test, its shape, a call giving bytes)
FLOAT_CASES = [
    ("apply_rotation", "x", (D,), lambda a: rq.apply_rotation(a, SPEC).tobytes()),
    ("inverse_rotation", "y", (D,), lambda a: rq.inverse_rotation(a, SPEC).tobytes()),
    ("rotate_many", "x", (3, D), lambda a: rq.rotate_many(a, 2, [1, 2, 3]).tobytes()),
    ("fwht", "v", (4, D), lambda a: rq.fwht(a, normalize=True).tobytes()),
    ("drive_encode-biased", "x", (D,), lambda a: rq.serialize(rq.drive_encode(a, SPEC))),
    ("drive_encode-unbiased", "x", (D,),
     lambda a: rq.serialize(rq.drive_encode(a, SPEC, "unbiased"))),
    ("bsq_encode", "x", (D,), lambda a: rq.serialize(rq.bsq_encode(a, SPEC, CFG, 5))),
    ("vq_encode", "x", (D,), _vq_encode),
    ("decide_layers", "x", (D,), lambda a: repr(rq.decide_layers(a)).encode()),
    ("moment_scan", "x", (D,), lambda a: repr(rq.moment_scan(a)).encode()),
    ("measure_drive_error", "x", (D,),
     lambda a: repr(rq.measure_drive_error(a, SPEC, "biased", 4)).encode()),
    ("dme_simulate", "client_vectors", (2, D),
     lambda a: rq.dme_simulate(a, SPEC, "unbiased", 4).tobytes()),
    ("verify_tv_transfer", "x", (D,), lambda a: rq.verify_tv_transfer(a, CFG, 4).tobytes()),
    ("verify_codebook_universality", "x", (D,),
     lambda a: rq.verify_codebook_universality(a, CB, (D,), 4)[0].tobytes()),
    ("conditional_cov_exact-y", "y", (D,),
     lambda a: repr(rq.conditional_cov_exact(a, SIGNS, 0, 3)).encode()),
    ("conditional_cov_exact-signs", "signs", (D,),
     lambda a: repr(rq.conditional_cov_exact(Y, a, 0, 3)).encode()),
    ("serialize", "obj", (D,), rq.serialize),
    ("EmpiricalSample.from_values", "values", (D,),
     lambda a: EmpiricalSample.from_values(a).values.tobytes()),
    ("BsqConfig.error_function", "z", (D,), lambda a: CFG.error_function(a).tobytes()),
    ("BsqPayload-outlier_val", "outlier_val", (2,), lambda a: _bsq_payload(outlier_val=a)),
    ("Codebook", "centroids", (4, 2), lambda a: rq.serialize(rq.Codebook(a, 7))),
]

# (entry point, the argument under test, valid values, a call giving bytes)
INTEGER_CASES = [
    ("vq_decode", "indices", [0, 3, 1, 2, 2, 1, 3, 0],
     lambda a: rq.vq_decode(a, 0.5, SPEC, CB).tobytes()),
    ("BsqPayload-codes", "codes", CODES, lambda a: _bsq_payload(codes=a)),
    ("BsqPayload-outlier_idx", "outlier_idx", OUTLIER_IDX,
     lambda a: _bsq_payload(outlier_idx=a)),
]


def _real_values(dtype: str, shape, seed: int) -> np.ndarray:
    """Values of ``dtype`` that make a valid input in most draws: non-zero
    (entry 0 is 1) and mostly beyond a BSQ threshold."""
    rng = np.random.default_rng(seed)
    if dtype == "bool":
        a = rng.integers(0, 2, shape).astype(bool)
    elif dtype.startswith("float"):
        a = (10.0 * rng.standard_normal(shape)).astype(dtype)
    else:
        lo = 0 if dtype.startswith("uint") else -50
        a = rng.integers(lo, lo + 100, shape).astype(dtype)
    a.reshape(-1)[0] = 1
    return a


def _non_real(values) -> dict:
    """The values in each dtype the gate refuses."""
    values = np.asarray(values)
    return {
        "complex64": values.astype(np.complex64),
        "complex128": values.astype(np.complex128) + 1j,
        "object": values.astype(object),
        "str": values.astype(str),
        "bytes": values.astype(str).astype(np.bytes_),
        "datetime64": values.astype(np.int64).astype("datetime64[s]"),
        "void": np.zeros(values.shape, dtype="V8"),
    }


def _outcome(call, a):
    """``call(a)``'s bytes, or the type and message of what it raised."""
    try:
        return call(a)
    except ValueError as e:
        return ("ValueError", str(e))


def _refused(call, a, name: str, what):
    with pytest.raises(ValueError, match=rf"\b{name}\b") as err:
        call(a)
    assert str(a.dtype) in str(err.value), (what, str(err.value))


@pytest.mark.parametrize("entry, name, shape, call", FLOAT_CASES,
                         ids=[c[0] for c in FLOAT_CASES])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_real_dtype_is_its_float64_values_and_any_other_raises(entry, name, shape, call,
                                                                seed):
    for dtype in REAL:
        a = _real_values(dtype, shape, seed)
        assert _outcome(call, a) == _outcome(call, a.astype(np.float64)), (entry, dtype)
    for what, a in _non_real(_real_values("float64", shape, seed)).items():
        _refused(call, a, name, (entry, what))


@pytest.mark.parametrize("entry, name, values, call", INTEGER_CASES,
                         ids=[c[0] for c in INTEGER_CASES])
def test_an_index_field_takes_integer_dtypes_only(entry, name, values, call):
    want = call(np.asarray(values, dtype=np.int64))
    for dtype in INTEGER:
        assert call(np.asarray(values).astype(dtype)) == want, (entry, dtype)
    assert call(list(values)) == want
    refused = {"bool": np.asarray(values).astype(bool),
               **{f: np.asarray(values).astype(f) for f in ("float16", "float32", "float64")},
               **_non_real(values)}
    for what, a in refused.items():
        _refused(call, a, name, (entry, what))


def test_lists_and_streams_of_complex_numbers_raise():
    """A list or a once-read stream takes the dtype numpy infers for it."""
    values = [1.0 + 0.0j] * D
    for call in (rq.apply_rotation, rq.drive_encode):
        with pytest.raises(ValueError, match=r"\bx\b.*complex128"):
            call(values, SPEC)
    for call in (rq.decide_layers, rq.moment_scan):
        with pytest.raises(ValueError, match=r"\bx\b.*complex128"):
            call(iter(values))
        assert call(iter([1.0] * D)) == call(np.ones(D))


# --- scalars -------------------------------------------------------------------

X2 = np.ones((1, D))
TWO_SPIKE = rq.gen_adversarial("two_spike", D)


def _first(it):
    """The first item of an iterator, so a lazy kernel runs its checks."""
    return next(iter(it))


# (entry point, the name its errors use, a valid value, an out-of-range
# value, a call).  The name is a regex ("need at least one draw" is documented
# for draws).  The valid value's type sets the rule: an int takes the
# integer rule, a float the real gate.  Every master seed (``master``,
# ``master_seed``, ``train_seed`` of the training) reports as "master seed",
# and every transform dimension as "dimension".
SCALAR_CASES = [
    ("check_dim", "dimension", D, 12, lambda v: core.check_dim(v)),
    ("RotationSpec-dim", "dimension", D, 0, lambda v: rq.RotationSpec(v, 2, 3)),
    ("RotationSpec-layers", "layers", 2, 4, lambda v: rq.RotationSpec(D, v, 3)),
    ("RotationSpec-seed", "seed", 3, 2**64, lambda v: rq.RotationSpec(D, 2, v)),
    ("layer_signs-layer", "layer", 1, 0, lambda v: core.layer_signs([1], v, D)),
    ("layer_signs-dim", "dimension", D, -4, lambda v: core.layer_signs([1], 1, v)),
    ("rotate_many-layers", "layers", 2, 4, lambda v: rq.rotate_many(Y, v, [1])),
    ("fwht_sign_bits-d", "dimension", D, 24, lambda v: core.fwht_sign_bits(bytes(2), v)),
    ("unpack_sign_bits-d", "d", D, -1, lambda v: core.unpack_sign_bits(bytes(2), v)),
    ("padding_is_zero-n_bits", "n_bits", D, -1, lambda v: core.padding_is_zero(bytes(2), v)),
    ("derive_seed-master", "master seed", 1, -1, lambda v: rq.derive_seed(v, 0)),
    ("derive_seed-index", "index", 0, -1, lambda v: rq.derive_seed(1, v)),
    ("derive_seeds-master", "master seed", 1, 2**64, lambda v: rq.derive_seeds(v, 0, 2)),
    ("derive_seeds-start", "start", 0, -1, lambda v: rq.derive_seeds(1, v, 2)),
    ("derive_seeds-count", "count", 2, -1, lambda v: rq.derive_seeds(1, 0, v)),
    ("words", "count", 4, -1, lambda v: rq.Xoshiro256pp([1]).words(v)),
    ("sign_values", "count", 4, -1, lambda v: rq.Xoshiro256pp([1]).sign_values(v)),
    ("uniforms", "count", 4, -1, lambda v: rq.Xoshiro256pp([1]).uniforms(v)),
    ("gaussians", "count", 4, -1, lambda v: rq.Xoshiro256pp([1, 2]).gaussians(v)),
    ("run_ordered-threads", "threads", 2, 0, lambda v: list(core.run_ordered(range(3), abs, v))),
    ("map_trials-layers", "layers", 2, 4,
     lambda v: _first(core.map_trials(X2, v, 4, 0, lambda y, s: y))),
    ("map_trials-trials", "trials", 4, 1,
     lambda v: _first(core.map_trials(X2, 2, v, 0, lambda y, s: y))),
    ("map_trials-master_seed", "master seed", 0, -1,
     lambda v: _first(core.map_trials(X2, 2, 4, v, lambda y, s: y))),
    ("map_trials-threads", "threads", 2, 0,
     lambda v: _first(core.map_trials(X2, 2, 4, 0, lambda y, s: y, threads=v))),
    ("measure_drive_error-trials", "trials", 4, 1,
     lambda v: rq.measure_drive_error(Y, SPEC, "biased", v)),
    ("measure_drive_error-threads", "threads", 2, -3,
     lambda v: rq.measure_drive_error(Y, SPEC, "biased", 4, v)),
    ("dme_simulate-trials", "trials", 4, 0, lambda v: rq.dme_simulate(X2, SPEC, "unbiased", v)),
    ("dme_simulate-threads", "threads", 2, 0,
     lambda v: rq.dme_simulate(X2, SPEC, "unbiased", 4, v)),
    ("scaling_constant_cd", "d", 4, 0, lambda v: rq.scaling_constant_cd(v)),
    ("BsqConfig-bits", "bits", 3, 21, lambda v: rq.BsqConfig(bits=v, tail_mass=0.05)),
    ("bsq_encode-noise_seed", "noise_seed", 5, -1, lambda v: rq.bsq_encode(Y, SPEC, CFG, v)),
    ("verify_tv_transfer-trials", "trials", 4, 1, lambda v: rq.verify_tv_transfer(Y, CFG, v)),
    ("verify_tv_transfer-layers", "layers", 2, 4, lambda v: rq.verify_tv_transfer(Y, CFG, 4, v)),
    ("verify_tv_transfer-master_seed", "master seed", 0, -1,
     lambda v: rq.verify_tv_transfer(Y, CFG, 4, 2, v)),
    ("verify_tv_transfer-threads", "threads", 2, 0,
     lambda v: rq.verify_tv_transfer(Y, CFG, 4, 2, 0, v)),
    ("Codebook-train_seed", "train_seed", 7, -1, lambda v: rq.Codebook(np.ones((2, 2)), v)),
    ("train_gaussian_codebook-block_dim", "block_dim", 2, 0,
     lambda v: rq.train_gaussian_codebook(v, 4, 7, n_samples=100)),
    ("train_gaussian_codebook-n_centroids", "n_centroids", 4, 0,
     lambda v: rq.train_gaussian_codebook(2, v, 7, n_samples=100)),
    ("train_gaussian_codebook-train_seed", "master seed", 7, 2**64,
     lambda v: rq.train_gaussian_codebook(2, 4, v, n_samples=100)),
    ("train_gaussian_codebook-n_samples", "n_samples", 100, 39,
     lambda v: rq.train_gaussian_codebook(2, 4, 7, n_samples=v)),
    ("stein_diagnostic_constant", "k", 4, 0, lambda v: rq.stein_diagnostic_constant(v)),
    ("conditional_cov_trials-i", "i", 0, D, lambda v: vq.conditional_cov_trials(Y, v, 1, 3, 4)),
    ("conditional_cov_trials-j", "j", 1, -1, lambda v: vq.conditional_cov_trials(Y, 0, v, 3, 4)),
    ("conditional_cov_trials-layers", "layers", 3, 1,
     lambda v: vq.conditional_cov_trials(Y, 0, 1, v, 4)),
    ("conditional_cov_trials-trials", "trials", 4, 1,
     lambda v: vq.conditional_cov_trials(Y, 0, 1, 3, v)),
    ("conditional_cov_trials-threads", "threads", 2, 0,
     lambda v: vq.conditional_cov_trials(Y, 0, 1, 3, 4, threads=v)),
    ("verify_codebook_universality-dims", "dimension", D, 0,
     lambda v: rq.verify_codebook_universality(Y, CB, (v,), 4)),
    ("verify_codebook_universality-trials", "trials", 4, 1,
     lambda v: rq.verify_codebook_universality(Y, CB, (D,), v)),
    ("verify_codebook_universality-layers", "layers", 3, 4,
     lambda v: rq.verify_codebook_universality(Y, CB, (D,), 4, layers=v)),
    ("gen_adversarial-d", "dimension", D, 0, lambda v: rq.gen_adversarial("flat", v)),
    ("gen_adversarial-seed", "seed", 3, -1,
     lambda v: rq.gen_adversarial("dirichlet_random", D, seed=v)),
    ("gen_adversarial-bits", "bits", 2, 0,
     lambda v: rq.gen_adversarial("grid_midpoints", D, bits=v)),
    ("conditional_cov_exact-i", "i", 0, D, lambda v: rq.conditional_cov_exact(Y, SIGNS, v, 3)),
    ("conditional_cov_exact-j", "j", 3, -1, lambda v: rq.conditional_cov_exact(Y, SIGNS, 0, v)),
    ("default_eta3", "d", D, 0, lambda v: adaptive.default_eta3(v)),
    ("default_eta_inf", "d", D, 0, lambda v: adaptive.default_eta_inf(v)),
    ("dkw_slack", "n", 100, 0, lambda v: experiments.dkw_slack(v)),
    ("run_scalar_convergence-draws", "draws?", 64, 0,
     lambda v: experiments.run_scalar_convergence((D,), draws=v)),
    ("run_dme-n_clients", "n_clients", 2, 0,
     lambda v: experiments.run_dme(D, (1, v), trials=4)),
    ("run_adaptive_soundness-n_inputs", "n_inputs", 1, 0,
     lambda v: experiments.run_adaptive_soundness(v, D, draws=64)),
    ("BsqConfig-tail_mass", "tail_mass", 0.05, 1.5, lambda v: rq.BsqConfig(bits=3, tail_mass=v)),
    ("threshold_for_p", "tail_mass", 0.05, 0.0, lambda v: rq.threshold_for_p(v)),
    ("gen_adversarial-tail_mass", "tail_mass", 0.05, -0.1,
     lambda v: rq.gen_adversarial("grid_midpoints", D, tail_mass=v)),
    ("normal_quantile", "q", 0.5, 1.5, lambda v: metrics.normal_quantile(v)),
    ("decide_layers-eta3", "eta3", 0.5, -1.0, lambda v: rq.decide_layers(Y, eta3=v)),
    ("decide_layers-eta_inf", "eta_inf", 0.5, math.inf, lambda v: rq.decide_layers(Y, eta_inf=v)),
    ("DrivePayload-scale", "scale", 1.0, -1.0, lambda v: rq.DrivePayload("biased", SPEC, v, bytes(2))),
    ("BsqPayload-scale", "scale", 1.0, math.nan,
     lambda v: rq.BsqPayload(SPEC, CFG, v, CODES, OUTLIER_IDX, (2.5, -3.0))),
    ("vq_decode-scale", "scale", 0.5, math.inf,
     lambda v: rq.vq_decode([0, 3, 1, 2, 2, 1, 3, 0], v, SPEC, CB)),
]


@pytest.mark.parametrize("entry, name, valid, bad, call", SCALAR_CASES,
                         ids=[c[0] for c in SCALAR_CASES])
def test_a_scalar_outside_its_rule_raises_naming_the_argument(entry, name, valid, bad, call):
    """An integer argument takes an ``int``, bool or numpy integer in its
    range; a real one a real scalar.  An out-of-range value, a str and a
    complex raise ``ValueError`` naming the argument, and so do a float and a
    1-element array where an integer is due."""
    numpy_valid = np.int64(valid) if isinstance(valid, int) else np.float32(valid)
    for v in (valid, numpy_valid):
        call(v)
    refused = [bad, str(valid), complex(valid)]
    if isinstance(valid, int):
        refused += [valid + 0.5, np.array([valid])]
    for v in refused:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(v)


def test_escaped_scalars_raise_at_construction():
    with pytest.raises(ValueError, match=r"\bbits\b"):
        rq.BsqConfig(bits=3.0, tail_mass=0.01)
    with pytest.raises(ValueError, match=r"\btrain_seed\b"):
        rq.Codebook(np.ones((2, 2)), train_seed=-1)
    for scalar_only in (lambda: rq.BsqConfig(3, np.array([0.05])),
                        lambda: rq.DrivePayload("biased", SPEC, np.array([1.0]), bytes(2))):
        with pytest.raises(ValueError, match=r"0-d array: (tail_mass|scale) has shape \(1,\)"):
            scalar_only()
    cfg = rq.BsqConfig(bits=np.uint8(3), tail_mass=np.float32(0.05))
    assert (type(cfg.bits), type(cfg.tail_mass)) == (int, float)
    assert rq.serialize(rq.bsq_encode(Y, SPEC, cfg, 5)) == rq.serialize(
        rq.bsq_encode(Y, SPEC, rq.BsqConfig(3, float(np.float32(0.05))), 5))


@pytest.mark.parametrize("threads", [0, -3])
def test_an_estimator_refuses_fewer_than_one_thread(threads):
    for call in (lambda: rq.measure_drive_error(Y, SPEC, "unbiased", 4, threads),
                 lambda: experiments.run_bsq_transfer(D, trials=4, threads=threads),
                 lambda: experiments.run_vq_decorrelation((D,), 4, threads=threads)):
        with pytest.raises(ValueError, match=r"threads must be an integer >= 1"):
            call()
