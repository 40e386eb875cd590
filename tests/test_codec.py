import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquant.bsq import BsqConfig, BsqPayload, bsq_decode, bsq_encode
from rotquant.codec import (
    KIND_BSQ,
    KIND_CODEBOOK,
    KIND_DRIVE,
    KIND_VECTOR,
    MAGIC,
    WIRE_VERSION,
    FormatError,
    deserialize,
    serialize,
)
from rotquant.core import RotationSpec
from rotquant.drive import DrivePayload, drive_decode, drive_encode
from rotquant.vq import Codebook, train_gaussian_codebook
from _oracles import reference_drive_decode

RNG = np.random.default_rng(31)


def drive_payload(d=64, layers=2, seed=7, mode="biased"):
    x = np.random.default_rng(d + seed).standard_normal(d)
    return drive_encode(x, RotationSpec(dim=d, layers=layers, seed=seed), mode=mode)


def bsq_payload(d=64, layers=2, seed=5, bits=3, tail_mass=0.05, noise_seed=11):
    x = np.random.default_rng(d + seed).standard_normal(d)
    return bsq_encode(x, RotationSpec(dim=d, layers=layers, seed=seed),
                      BsqConfig(bits=bits, tail_mass=tail_mass), noise_seed=noise_seed)


# --- header and size ----------------------------------------------------------

def test_header_layout_golden():
    pay = drive_payload(d=256, layers=2, seed=7)
    wire = serialize(pay)
    flags = (8 << 1) | (2 << 7)
    assert wire[:16] == (b"RQ01" + bytes([KIND_DRIVE, WIRE_VERSION])
                         + struct.pack("<H", flags) + struct.pack("<Q", 7))
    assert MAGIC == b"RQ01"


def test_drive_wire_footprint():
    for d in (1, 2, 64, 256, 1024):
        pay = drive_payload(d=d, layers=min(2, d.bit_length() - 1))
        wire = serialize(pay)
        assert len(wire) == 16 + 8 + (d + 7) // 8


def test_code_packing_golden():
    from rotquant.codec import _pack_codes, _unpack_codes

    packed = _pack_codes(np.array([1, 2, 3], dtype=np.uint32), 2)
    assert packed == bytes([0b00111001])
    assert _unpack_codes(packed, 3, 2).tolist() == [1, 2, 3]
    assert _pack_codes(np.zeros(0, dtype=np.uint32), 4) == b""
    codes = RNG.integers(0, 32, size=101).astype(np.uint32)
    assert np.array_equal(_unpack_codes(_pack_codes(codes, 5), 101, 5), codes)


# --- roundtrips ---------------------------------------------------------------

def test_drive_roundtrip_bit_exact():
    for mode in ("biased", "unbiased"):
        pay = drive_payload(mode=mode)
        back = deserialize(serialize(pay))
        assert back == pay
        assert np.array_equal(drive_decode(back), drive_decode(pay))


def test_bsq_roundtrip_bit_exact():
    pay = bsq_payload()
    back = deserialize(serialize(pay))
    assert back == pay
    assert np.array_equal(bsq_decode(back), bsq_decode(pay))


def test_codebook_roundtrip_bit_exact():
    cb = train_gaussian_codebook(4, 16, train_seed=2024, n_samples=4000)
    back = deserialize(serialize(cb))
    assert isinstance(back, Codebook)
    assert back.block_dim == cb.block_dim
    assert back.train_seed == cb.train_seed
    assert back.radius == cb.radius
    assert back == cb


def test_payload_equality_compares_every_field():
    pay = bsq_payload()
    assert pay == bsq_payload() and pay != "payload"
    for other in (bsq_payload(noise_seed=12), bsq_payload(bits=4), bsq_payload(seed=6)):
        assert pay != other
    codes = pay.codes.copy()
    codes[0] ^= 1
    assert pay != BsqPayload(pay.spec, pay.config, pay.scale, codes,
                             pay.outlier_idx, pay.outlier_val)
    assert pay != BsqPayload(pay.spec, pay.config, 2.0 * pay.scale, pay.codes,
                             pay.outlier_idx, pay.outlier_val)
    cb = Codebook(np.eye(3), train_seed=5)
    assert cb == Codebook(np.eye(3), train_seed=5) and cb != "codebook"
    assert cb != Codebook(np.eye(3), train_seed=6)
    assert cb != Codebook(-np.eye(3), train_seed=5)
    assert cb != Codebook(np.eye(3)[:2], train_seed=5)


def test_vector_roundtrip_bit_exact():
    v = RNG.standard_normal(129)
    assert np.array_equal(deserialize(serialize(v)), v)
    with pytest.raises(ValueError):
        serialize(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        serialize(np.array([1.0, np.inf]))
    with pytest.raises(TypeError):  # a bare float is not a wire object
        serialize(3.14)


# --- failure taxonomy ---------------------------------------------------------

def _expect_field(wire: bytes, field: str):
    with pytest.raises(FormatError) as err:
        deserialize(wire)
    assert err.value.field == field


def test_malformed_streams_name_the_bad_field():
    wire = serialize(drive_payload())
    _expect_field(b"XX" + wire[2:], "magic")
    _expect_field(wire[:5] + bytes([99]) + wire[6:], "version")
    _expect_field(wire[:4] + bytes([77]) + wire[5:], "kind")
    _expect_field(wire[:10], "length")
    _expect_field(wire + b"\x00", "length")
    _expect_field(b"", "length")

    # reserved flag bits above the drive mode bit
    flags = struct.unpack_from("<H", wire, 6)[0] | (1 << 12)
    _expect_field(wire[:6] + struct.pack("<H", flags) + wire[8:], "flags")

    bw = bytearray(serialize(bsq_payload()))
    struct.pack_into("<d", bw, 16, -0.5)  # tail mass outside (0, 1)
    _expect_field(bytes(bw), "config")
    struct.pack_into("<d", bw, 16, 1e-17)  # tail mass with no finite threshold
    _expect_field(bytes(bw), "config")
    smallest = bsq_payload(tail_mass=np.nextafter(2.0**-53, 1.0))  # the least accepted
    assert deserialize(serialize(smallest)) == smallest
    bw = bytearray(serialize(bsq_payload()))
    struct.pack_into("<I", bw, 32, 1 << 20)  # more outliers than coordinates
    _expect_field(bytes(bw), "outliers")

    cw = bytearray(serialize(train_gaussian_codebook(2, 4, train_seed=1,
                                                     n_samples=1000)))
    struct.pack_into("<d", cw, 24, 1e9)
    _expect_field(bytes(cw), "radius")

    vw = bytearray(serialize(np.ones(4)))
    struct.pack_into("<d", vw, 16, np.nan)
    _expect_field(bytes(vw), "values")
    vw = bytearray(serialize(np.ones(4)))
    struct.pack_into("<Q", vw, 8, 0)
    _expect_field(bytes(vw), "d")


def test_full_layer_field_is_legal():
    wire = bytearray(serialize(drive_payload()))
    flags = struct.unpack_from("<H", wire, 6)[0]
    struct.pack_into("<H", wire, 6, (flags & ~(0x3 << 7)) | (0x3 << 7))
    assert deserialize(bytes(wire)).spec.layers == 3


def run_mutation_fuzz(n_trials: int, seed: int = 0) -> int:
    """Randomly corrupt valid wires; every outcome must be a FormatError or
    a clean parse that re-serializes to the same bytes.  Returns how many
    mutations still parsed."""
    rng = np.random.default_rng(seed)
    bases = [
        serialize(drive_payload()),
        serialize(drive_payload(mode="unbiased", d=32)),
        serialize(bsq_payload()),
        serialize(bsq_payload(bits=1, tail_mass=0.2, d=16)),
        serialize(train_gaussian_codebook(2, 4, train_seed=1, n_samples=1000)),
        serialize(RNG.standard_normal(24)),
    ]
    parsed = 0
    for t in range(n_trials):
        wire = bytearray(bases[int(rng.integers(len(bases)))])
        op = rng.integers(4)
        if op == 0:  # flip bytes
            for _ in range(int(rng.integers(1, 4))):
                wire[int(rng.integers(len(wire)))] = int(rng.integers(256))
        elif op == 1:  # truncate
            wire = wire[: int(rng.integers(len(wire)))]
        elif op == 2:  # extend
            wire += bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)),
                                       dtype=np.uint8).tolist())
        else:  # flip a single bit
            k = int(rng.integers(len(wire) * 8))
            wire[k // 8] ^= 1 << (k % 8)
        try:
            obj = deserialize(bytes(wire))
        except FormatError:
            continue
        parsed += 1
        # canonical: whatever parses re-serializes to the very same bytes
        assert serialize(obj) == bytes(wire)
    return parsed


def test_drive_sign_padding_must_be_zero():
    wire = bytearray(serialize(drive_payload(d=4)))
    wire[-1] |= 0xF0  # bits 4-7 of the only sign byte are padding
    with pytest.raises(FormatError) as err:
        deserialize(bytes(wire))
    assert err.value.field == "signs"


def test_bsq_code_padding_must_be_zero():
    cfg = BsqConfig(bits=3, tail_mass=0.05)
    pay = BsqPayload(spec=RotationSpec(dim=16, layers=2, seed=5), config=cfg,
                     scale=1.0, codes=np.arange(15) % 8, outlier_idx=[3],
                     outlier_val=[cfg.threshold + 1.0])
    wire = bytearray(serialize(pay))
    assert deserialize(bytes(wire)).codes.tolist() == pay.codes.tolist()
    # 15 codes x 3 bits = 45 bits in 6 bytes: bits 5-7 of the last are padding
    last_code_byte = 16 + 8 + 8 + 4 + 5
    wire[last_code_byte] |= 0xE0
    with pytest.raises(FormatError) as err:
        deserialize(bytes(wire))
    assert err.value.field == "codes"


def test_flag_bit_0_is_reserved_for_every_payload_kind():
    for pay in (drive_payload(), bsq_payload()):
        wire = bytearray(serialize(pay))
        assert wire[6] & 1 == 0
        wire[6] |= 1
        _expect_field(bytes(wire), "flags")


def test_codebook_radius_must_match_bit_for_bit():
    cb = train_gaussian_codebook(2, 4, train_seed=1, n_samples=1000)
    wire = serialize(cb)
    assert struct.unpack_from("<d", wire, 24)[0] == cb.radius
    for off_by_one_ulp in (np.nextafter(cb.radius, np.inf),
                           np.nextafter(cb.radius, 0.0)):
        cw = bytearray(wire)
        struct.pack_into("<d", cw, 24, off_by_one_ulp)
        _expect_field(bytes(cw), "radius")
    # an all-zero codebook has radius +0.0; -0.0 equals it but is other bytes
    zero = bytearray(serialize(Codebook(np.zeros((1, 2)), train_seed=0)))
    assert deserialize(bytes(zero)).radius == 0.0
    struct.pack_into("<d", zero, 24, -0.0)
    _expect_field(bytes(zero), "radius")


def test_codebook_norms_that_overflow_are_rejected():
    cw = bytearray(serialize(Codebook(np.ones((2, 4)), train_seed=0)))
    struct.pack_into("<4d", cw, 32, *[1e200] * 4)  # first centroid's entries
    _expect_field(bytes(cw), "centroids")


def test_mutation_fuzz_never_escapes_format_error():
    parsed = run_mutation_fuzz(2500, seed=42)
    assert parsed < 2500  # corruption is actually being detected


# --- property tests -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(log2d=st.integers(0, 7), layers=st.integers(0, 3),
       seed=st.integers(0, 2**64 - 1), unbiased=st.booleans())
def test_drive_roundtrip_property(log2d, layers, seed, unbiased):
    d = 1 << log2d
    x = np.random.default_rng(seed % 2**32).standard_normal(d)
    pay = drive_encode(x, RotationSpec(dim=d, layers=layers, seed=seed),
                       mode="unbiased" if unbiased else "biased")
    back = deserialize(serialize(pay))
    assert back == pay
    assert drive_decode(back).tobytes() == reference_drive_decode(pay).tobytes()


@settings(max_examples=40, deadline=None)
@given(log2d=st.integers(2, 7), bits=st.integers(1, 8),
       tail=st.floats(0.01, 0.5), noise=st.integers(0, 2**32))
def test_bsq_roundtrip_property(log2d, bits, tail, noise):
    pay = bsq_payload(d=1 << log2d, bits=bits, tail_mass=tail, noise_seed=noise)
    assert deserialize(serialize(pay)) == pay


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_vector_roundtrip_property(n, seed):
    v = np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(deserialize(serialize(v)), v)
