"""Bit-exact wire formats for payloads, codebooks, and vectors.

The rotation itself is never stored: the decoder regenerates it from the
64-bit seed in the header (shared randomness), so an encoded vector costs a
16-byte header plus its quantized body.  All multi-byte integers are
little-endian, floats are IEEE-754 binary64, and bit fields pack
little-endian within bytes (coordinate 0 is bit 0 of byte 0).

Header (16 bytes): magic ``RQ01`` | kind u8 | version u8 | flags u16 |
key u64.  The key is the rotation seed for payload kinds, the training seed
for codebooks, and the length for raw vectors.  For payload kinds flag
bit 0 is reserved, bits 1-6 carry log2(d) and bits 7-8 the layer count; the
remaining bits are kind-specific (kind 1: bit 9 = unbiased mode; kind 2:
bits 9-13 = quantizer bits - 1).  Reserved bits, the padding after packed
signs or codes, and a codebook radius other than the one its centroids
give, are all rejected, so each object has exactly one encoding and any
bytes that parse re-serialize to themselves.
"""

from __future__ import annotations

import struct

import numpy as np

from .bsq import BsqConfig, BsqPayload
from .core import MAX_LAYERS, RotationSpec, _input_array, padding_is_zero
from .drive import DrivePayload
from .vq import Codebook

__all__ = [
    "FormatError",
    "serialize",
    "deserialize",
    "MAGIC",
    "WIRE_VERSION",
    "KIND_DRIVE",
    "KIND_BSQ",
    "KIND_CODEBOOK",
    "KIND_VECTOR",
]

MAGIC = b"RQ01"
WIRE_VERSION = 1
KIND_DRIVE = 1
KIND_BSQ = 2
KIND_CODEBOOK = 3
KIND_VECTOR = 4

_HEADER = struct.Struct("<4sBBHQ")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
# one outlier record: coordinate index, then its unquantized value
_OUTLIER = np.dtype([("idx", "<u4"), ("val", "<f8")])


class FormatError(ValueError):
    """Malformed wire data; ``field`` names the offending part."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise FormatError(field, message)


def _spec_flags(spec: RotationSpec) -> int:
    return ((spec.dim.bit_length() - 1) << 1) | (spec.layers << 7)


def _require_zero_padding(raw: bytes, n_bits: int, field: str):
    """The bits after the first ``n_bits`` of a packed field must be zero,
    so every payload has exactly one encoding."""
    _require(padding_is_zero(raw, n_bits), field, "nonzero padding bits")


def _read_spec(flags: int, key: int, kind_bits: int) -> tuple[RotationSpec, int]:
    """Decode the shared rotation fields; returns the spec and the
    kind-specific remainder of the flag word."""
    log2d = (flags >> 1) & 0x3F
    layers = (flags >> 7) & 0x3
    _require(layers <= MAX_LAYERS, "flags", f"layer count {layers} out of range")
    _require(flags & 1 == 0, "flags", "reserved flag bit 0 set")
    spec = RotationSpec(dim=1 << log2d, layers=layers, seed=key)
    return spec, flags >> (9 + kind_bits)


def _pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack b-bit codes contiguously, little-endian bit order."""
    if codes.size == 0:
        return b""
    shifts = np.arange(bits, dtype=np.uint32)
    bit_rows = (codes[:, None] >> shifts[None, :]) & np.uint32(1)
    return np.packbits(bit_rows.astype(np.uint8).reshape(-1),
                       bitorder="little").tobytes()


def _unpack_codes(raw: bytes, count: int, bits: int) -> np.ndarray:
    flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little", count=count * bits)
    rows = flat.reshape(count, bits)
    codes = rows[:, 0].astype(np.uint32)
    for b in range(1, bits):  # a loop over the few bit columns, not the codes
        codes |= rows[:, b].astype(np.uint32) << np.uint32(b)
    return codes


def _serialize_drive(p: DrivePayload) -> bytes:
    flags = _spec_flags(p.spec)
    if p.mode == "unbiased":
        flags |= 1 << 9
    return (_HEADER.pack(MAGIC, KIND_DRIVE, WIRE_VERSION, flags, p.spec.seed)
            + _F64.pack(p.scale) + p.sign_bits)


def _deserialize_drive(flags: int, key: int, body: bytes) -> DrivePayload:
    spec, rest = _read_spec(flags, key, kind_bits=1)
    mode = "unbiased" if (flags >> 9) & 1 else "biased"
    _require(rest == 0, "flags", "reserved flag bits set")
    expected = _F64.size + (spec.dim + 7) // 8
    _require(len(body) == expected, "length",
             f"body is {len(body)} bytes, expected {expected}")
    (scale,) = _F64.unpack_from(body, 0)
    _require_zero_padding(body, spec.dim, "signs")
    try:
        return DrivePayload(mode=mode, spec=spec, scale=scale,
                            sign_bits=body[_F64.size:])
    except ValueError as e:
        raise FormatError("payload", str(e)) from e


def _serialize_bsq(p: BsqPayload) -> bytes:
    flags = _spec_flags(p.spec) | ((p.config.bits - 1) << 9)
    outliers = np.empty(p.outlier_idx.size, dtype=_OUTLIER)
    outliers["idx"] = p.outlier_idx
    outliers["val"] = p.outlier_val
    return b"".join([
        _HEADER.pack(MAGIC, KIND_BSQ, WIRE_VERSION, flags, p.spec.seed),
        _F64.pack(p.config.tail_mass),
        _F64.pack(p.scale),
        _U32.pack(p.outlier_idx.size),
        _pack_codes(p.codes, p.config.bits),
        outliers.tobytes(),
    ])


def _deserialize_bsq(flags: int, key: int, body: bytes) -> BsqPayload:
    spec, rest = _read_spec(flags, key, kind_bits=5)
    bits = ((flags >> 9) & 0x1F) + 1
    _require(rest == 0, "flags", "reserved flag bits set")
    fixed = _F64.size * 2 + _U32.size
    _require(len(body) >= fixed, "length", "body too short for bsq fields")
    (tail_mass,) = _F64.unpack_from(body, 0)
    (scale,) = _F64.unpack_from(body, _F64.size)
    (n_out,) = _U32.unpack_from(body, 2 * _F64.size)
    _require(n_out <= spec.dim, "outliers",
             f"{n_out} outliers exceed dimension {spec.dim}")
    n_codes = spec.dim - n_out
    code_bytes = (n_codes * bits + 7) // 8
    expected = fixed + code_bytes + n_out * _OUTLIER.itemsize
    _require(len(body) == expected, "length",
             f"body is {len(body)} bytes, expected {expected}")
    try:
        cfg = BsqConfig(bits=bits, tail_mass=tail_mass)
    except ValueError as e:
        raise FormatError("config", str(e)) from e
    raw_codes = body[fixed:fixed + code_bytes]
    _require_zero_padding(raw_codes, n_codes * bits, "codes")
    codes = _unpack_codes(raw_codes, n_codes, bits)
    outliers = np.frombuffer(body, dtype=_OUTLIER, count=n_out,
                             offset=fixed + code_bytes)
    try:
        return BsqPayload(spec=spec, config=cfg, scale=scale, codes=codes,
                          outlier_idx=outliers["idx"].copy(),
                          outlier_val=outliers["val"].copy())
    except ValueError as e:
        raise FormatError("payload", str(e)) from e


def _serialize_codebook(cb: Codebook) -> bytes:
    return (_HEADER.pack(MAGIC, KIND_CODEBOOK, WIRE_VERSION, 0, cb.train_seed)
            + _U32.pack(cb.block_dim) + _U32.pack(cb.n_centroids)
            + _F64.pack(cb.radius)
            + cb.centroids.astype("<f8").tobytes())


def _deserialize_codebook(flags: int, key: int, body: bytes) -> Codebook:
    _require(flags == 0, "flags", "reserved flag bits set")
    fixed = 2 * _U32.size + _F64.size
    _require(len(body) >= fixed, "length", "body too short for codebook fields")
    (k_blk,) = _U32.unpack_from(body, 0)
    (m,) = _U32.unpack_from(body, _U32.size)
    _require(k_blk >= 1, "block_dim", "block dimension must be positive")
    _require(m >= 1, "n_centroids", "need at least one centroid")
    expected = fixed + 8 * k_blk * m
    _require(len(body) == expected, "length",
             f"body is {len(body)} bytes, expected {expected}")
    cents = np.frombuffer(body, dtype="<f8", count=k_blk * m,
                          offset=fixed).reshape(m, k_blk)
    try:
        cb = Codebook(centroids=cents, train_seed=key)
    except ValueError as e:
        raise FormatError("centroids", str(e)) from e
    # compared as bytes: -0.0 == 0.0, but it would re-serialize differently
    _require(body[2 * _U32.size:fixed] == _F64.pack(cb.radius), "radius",
             "stored radius is not the largest centroid norm")
    return cb


def _serialize_vector(x: np.ndarray) -> bytes:
    v = _input_array(x, "obj", 1, nonempty=True, finite=True)
    return (_HEADER.pack(MAGIC, KIND_VECTOR, WIRE_VERSION, 0, v.size)
            + v.astype("<f8").tobytes())


def _deserialize_vector(flags: int, key: int, body: bytes) -> np.ndarray:
    _require(flags == 0, "flags", "reserved flag bits set")
    _require(1 <= key <= (1 << 40), "d", f"vector length {key} out of range")
    _require(len(body) == 8 * key, "length",
             f"body is {len(body)} bytes, expected {8 * key}")
    v = np.frombuffer(body, dtype="<f8").astype(np.float64)
    _require(bool(np.all(np.isfinite(v))), "values", "vector must be finite")
    return v


def serialize(obj) -> bytes:
    """Encode a payload, codebook, or raw vector to its wire bytes."""
    if isinstance(obj, DrivePayload):
        return _serialize_drive(obj)
    if isinstance(obj, BsqPayload):
        return _serialize_bsq(obj)
    if isinstance(obj, Codebook):
        return _serialize_codebook(obj)
    if isinstance(obj, np.ndarray):
        return _serialize_vector(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def deserialize(data: bytes):
    """Parse wire bytes; raises :class:`FormatError` naming the bad field,
    never returns a partially parsed object."""
    _require(len(data) >= _HEADER.size, "length",
             f"stream is {len(data)} bytes, header needs {_HEADER.size}")
    magic, kind, version, flags, key = _HEADER.unpack_from(data, 0)
    _require(magic == MAGIC, "magic", f"bad magic {magic!r}")
    _require(version == WIRE_VERSION, "version",
             f"unsupported version {version}")
    body = data[_HEADER.size:]
    if kind == KIND_DRIVE:
        return _deserialize_drive(flags, key, body)
    if kind == KIND_BSQ:
        return _deserialize_bsq(flags, key, body)
    if kind == KIND_CODEBOOK:
        return _deserialize_codebook(flags, key, body)
    if kind == KIND_VECTOR:
        return _deserialize_vector(flags, key, body)
    raise FormatError("kind", f"unknown payload kind {kind}")
