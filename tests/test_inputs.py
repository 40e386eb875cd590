"""The one input gate, seen from every public entry point that takes a
vector or matrix: bool, integer and float dtypes behave as the same values
in float64, bit for bit; every other dtype raises ``ValueError`` naming the
argument before any work.  Index and code fields take integer dtypes only.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotquant as rq
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
