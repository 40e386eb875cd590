"""Composed randomized Hadamard rotations.

The rotation with ``k`` layers is ``R_k = Hn D_k ... Hn D_1`` where ``Hn`` is
the normalized Walsh-Hadamard matrix ``H / sqrt(d)`` (Sylvester / natural
ordering throughout) and each ``D_l`` is a diagonal of independent random
signs derived deterministically from ``(seed, l)``.  ``R_0`` is the identity
and serves as a debug mode.

Sign plane derivation: layer ``l`` draws from a xoshiro256++ stream keyed by
``seed XOR l`` (see :mod:`rotquant.rng` for the stream conventions).  The
derivation is integer-exact, hence identical on every platform.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import islice

import numpy as np

from .rng import MASK64, Xoshiro256pp, _input_int, as_keys, derive_seeds

__all__ = [
    "MAX_LAYERS",
    "check_dim",
    "check_scale",
    "RotationSpec",
    "fwht",
    "layer_signs",
    "sign_vector",
    "unpack_sign_bits",
    "padding_is_zero",
    "fwht_sign_bits",
    "apply_rotation",
    "inverse_rotation",
    "rotate_normalized",
    "rotate_many",
    "TRIAL_CHUNK_ELEMS",
    "TRIAL_BLOCK",
    "FWHT_BLOCK_ELEMS",
    "run_ordered",
    "map_trials",
    "map_rotated",
    "mean_se",
    "sum_sq",
    "unit_vector",
]

MAX_LAYERS = 3

# Elements materialized per chunk of Monte Carlo trials (2^18 float64 =
# 2 MiB, so a chunk's arrays stay near cache size and a run splits into
# enough chunks to keep several threads busy), and the number of
# consecutive trials (aligned to trial 0) that a chunk never splits.  No
# result depends on the budget: per-trial values are computed trial by trial,
# and sums over trials add per-block sums in trial order.
TRIAL_CHUNK_ELEMS = 1 << 18
TRIAL_BLOCK = 4

# Elements (2^15 float64 = 256 KiB) that the FWHT carries through its stages
# as one block while they stay in cache.  A fixed constant, not an option;
# the output does not depend on it.
FWHT_BLOCK_ELEMS = 1 << 15

# Elements that every add/subtract run of :func:`fwht_sign_bits` spans at
# least, where the dimension and the row count allow.
_SIGN_RUN_ELEMS = 1 << 10


def check_dim(d) -> int:
    """A transform dimension as an ``int``: a positive power of two.  Any
    other value, a float such as ``8.0`` included, raises ``ValueError``."""
    d = _input_int(d, "dimension", 1)
    if d & (d - 1):
        raise ValueError(f"dimension must be a positive power of two, got {d}")
    return d


def _input_array(x, name: str, ndim=None, *, dim=None, nonempty=False,
                 finite=False, stream=False, integer=False) -> np.ndarray:
    """The one gate for a vector or matrix that a public function takes:
    ``x`` (argument ``name``) as a C-contiguous float64 array, checked
    before any work.  An array that already is one is returned as is.

    Bool, integer and float dtypes convert; any other dtype (complex,
    object, string, bytes, void, datetime) raises ``ValueError`` naming
    ``name`` and the dtype, so no imaginary part is silently dropped.  With
    ``stream`` a non-array ``x`` is read once, in 1-d blocks; with ``integer``
    only integer dtypes pass, and they keep their dtype.  Then ``ndim``
    (an axis count or a tuple of them; ``None``: any), ``nonempty``, ``dim``
    (the length of the last axis) and, with ``finite``, one pass that
    rejects NaN and infinite entries.  No other pass reads the data.
    """
    if stream and not isinstance(x, np.ndarray):
        # read once, a block at a time, so no more than a block of Python objects is held
        it = iter(x)
        blocks = iter(lambda: list(islice(it, 1 << 16)), [])
        x = np.concatenate([np.empty(0), *(_input_array(b, name, 1) for b in blocks)])
    a = np.asarray(x)
    if a.dtype.kind not in ("iu" if integer else "biuf"):
        kind = "integers" if integer else "real (bool, integer or float)"
        raise ValueError(f"input must be {kind}: {name} has dtype {a.dtype}")
    if not integer:
        a = np.asarray(a, dtype=np.float64, order="C")
    axes = (ndim,) if isinstance(ndim, int) else ndim
    if (axes is not None and a.ndim not in axes) or (nonempty and a.size == 0):
        shape = ("non-empty " if nonempty else "") + (
            "" if axes is None else " or ".join(f"{n}-d" for n in axes) + " ")
        raise ValueError(f"input must be a {shape}array: {name} has shape {a.shape}")
    if dim is not None and a.shape[-1] != dim:
        raise ValueError(f"input length must match dimension {dim}: {name} has shape {a.shape}")
    if finite and not np.all(np.isfinite(a)):
        raise ValueError(f"input must be finite: {name} has a NaN or infinite entry")
    return a


def check_scale(scale) -> float:
    """The one scale rule (``DrivePayload``, ``BsqPayload``, ``vq_decode``):
    a real scalar, finite and non-negative, as a float."""
    s = float(_input_array(scale, "scale", 0))
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"scale must be finite and non-negative, got {s!r}")
    return s


@dataclass(frozen=True)
class RotationSpec:
    """Rotation pipeline description: dimension, layer count, seed, stored
    as ints.  A ``dim`` that :func:`check_dim` refuses, and any ``layers``
    outside ``0 .. MAX_LAYERS`` or ``seed`` outside ``0 .. 2**64 - 1`` (a
    float, which would be truncated, included) raise ``ValueError``."""

    dim: int
    layers: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "layers", _input_int(self.layers, "layers", 0, MAX_LAYERS))
        object.__setattr__(self, "seed", _input_int(self.seed, "seed", 0, MASK64))


def _stage(src, dst) -> None:
    """One constant-geometry FWHT stage (Pease, JACM 1968) from ``src`` into
    the distinct buffer ``dst``, both ``(..., w, g)``: along axis ``-2``,
    ``dst[j] = src[2j] + src[2j+1]``, ``dst[j + w/2] = src[2j] - src[2j+1]``.
    Each stage rotates the index bits right by one, so stage ``i`` combines
    the pair, with the sign, of the textbook stage ``h = 2^i``, and after
    ``log2 w`` stages every element is back in its textbook place."""
    half = src.shape[-2] // 2
    np.add(src[..., 0::2, :], src[..., 1::2, :], out=dst[..., :half, :])
    np.subtract(src[..., 0::2, :], src[..., 1::2, :], out=dst[..., half:, :])


def _fwht_rows(src, dst, normalize: bool) -> None:
    """FWHT of the rows of ``src`` into ``dst``, both C-contiguous
    ``(m, d)``; ``dst`` is either ``src`` itself or does not overlap it.

    Stages with ``h < FWHT_BLOCK_ELEMS`` run on one block of about
    ``FWHT_BLOCK_ELEMS`` elements at a time (whole rows, or contiguous
    slices of one long row) as the constant-geometry stages of
    :func:`_stage`, alternating between two scratch buffers that stay in
    cache.  Any larger stages then run over ``dst`` in place, on
    ``FWHT_BLOCK_ELEMS // 2`` elements of each half at a time.
    """
    d = src.shape[1]
    width = min(d, FWHT_BLOCK_ELEMS)
    if width == 2 and src is dst:
        src = src.copy()  # the only stage would overwrite what it still reads
    blocks_in, blocks_out = src.reshape(-1, width), dst.reshape(-1, width)
    step = FWHT_BLOCK_ELEMS // width
    scratch = np.empty((2, min(step, blocks_in.shape[0]), width))
    root_d = math.sqrt(d)
    stages = width.bit_length() - 1
    for lo in range(0, blocks_in.shape[0], step):
        cur, out = blocks_in[lo:lo + step], blocks_out[lo:lo + step]
        bufs = scratch[:, :cur.shape[0]]
        for i in range(stages):
            nxt = out if i == stages - 1 else bufs[i % 2]
            _stage(cur[..., None], nxt[..., None])
            cur = nxt
        if cur is not out:  # d == 1
            out[...] = cur
        if normalize and d == width:
            np.divide(out, root_d, out=out)
    half = FWHT_BLOCK_ELEMS // 2
    tmp = np.empty(half) if d > width else None
    h = width
    while h < d:
        last = normalize and 2 * h == d
        for group in dst.reshape(-1, 2, h):
            for c in range(0, h, half):
                top, bot = group[0, c:c + half], group[1, c:c + half]
                np.add(top, bot, out=tmp)
                np.subtract(top, bot, out=bot)
                if last:
                    np.divide(tmp, root_d, out=top)
                    np.divide(bot, root_d, out=bot)
                else:
                    top[...] = tmp
        h *= 2


def _result_buffer(out, src, shape) -> np.ndarray:
    """A kernel's result buffer: a new float64 array of ``shape``, or
    ``out`` once it is a writable C-contiguous float64 array of that shape
    that is either ``src`` itself or does not overlap it."""
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == shape and out.flags.c_contiguous
            and out.flags.writeable):
        raise ValueError("out must be a writable C-contiguous float64 array "
                         "of the result's shape")
    if out is not src and np.may_share_memory(src, out):
        raise ValueError("out must be the input itself or not overlap it")
    return out


def fwht(v, normalize: bool = False, *, out=None) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (Sylvester ordering).

    Accepts a single vector or a batch ``(..., d)``; ``d`` must be a power of
    two.  With ``normalize=True`` the result is divided by ``sqrt(d)``, which
    makes the transform orthogonal and involutive.  The result goes into a
    new array, or into ``out``: a writable C-contiguous float64 array of the
    input's shape that is either the input itself (in place) or does not
    overlap it.  ``v`` is left unchanged unless it is ``out``.

    The kernel runs the ``log2 d`` stages on cache-sized row blocks
    (``FWHT_BLOCK_ELEMS``), inside a block as constant-geometry stages that
    write the sums and differences of adjacent pairs into the two halves of
    a second buffer.  Stage ``i`` combines the same pair, with the same
    sign, as the textbook stage ``h = 2^i``, so every output element sees
    the same additions and subtractions in the same stage order, then the
    same division by ``sqrt(d)``: the output is bit-identical to the textbook
    iterative butterfly and does not depend on the batch or block size.
    """
    a = _input_array(v, "v")
    if a.ndim == 0:
        raise ValueError("input must have at least one axis")
    d = check_dim(a.shape[-1])
    out = _result_buffer(out, a, a.shape)
    rows = out.reshape(-1, d)
    src = rows if out is a else a.reshape(-1, d)
    _fwht_rows(src, rows, normalize)
    return out


def layer_signs(seeds, layer: int, dim: int) -> np.ndarray:
    """Sign planes for one layer across many seeds, shape ``(n_seeds, dim)``.

    Row ``i`` holds the +/-1 diagonal for layer ``layer`` of a rotation
    seeded by ``seeds[i]``.
    """
    dim = check_dim(dim)
    layer = _input_int(layer, "layer", 1, MAX_LAYERS)
    keys = as_keys(seeds, "seeds") ^ np.uint64(layer)
    return Xoshiro256pp(keys).sign_values(dim)


def sign_vector(v) -> bytes:
    """Pack coordinate signs one bit each (clear = +1; sign(0) = +1).

    Bit ``j`` of byte ``j // 8`` holds coordinate ``j``, little-endian
    within each byte.
    """
    v = _input_array(v, "v", 1, nonempty=True)
    return np.packbits(v < 0, bitorder="little").tobytes()


def _sign_rows(packed, d: int) -> np.ndarray:
    """Packed signs, as ``bytes`` or uint8 rows ``(..., ceil(d/8))``, as a
    uint8 array with that last axis."""
    rows = np.frombuffer(packed, dtype=np.uint8) if isinstance(packed, bytes) else np.asarray(packed)
    if rows.dtype != np.uint8:
        raise ValueError("packed signs must be bytes or uint8")
    if rows.ndim == 0 or rows.shape[-1] != (d + 7) // 8:
        raise ValueError("packed sign length does not match dimension")
    return rows


def unpack_sign_bits(packed, d: int) -> np.ndarray:
    """Inverse of :func:`sign_vector`: packed bits to float64 +/-1, one
    vector per ``bytes`` or per uint8 row ``(..., ceil(d/8))``."""
    d = _input_int(d, "d")
    bits = np.unpackbits(_sign_rows(packed, d), axis=-1, count=d, bitorder="little")
    return 1.0 - 2.0 * bits


def padding_is_zero(packed: bytes, n_bits: int) -> bool:
    """Whether every bit after the first ``n_bits`` of a field packed as
    :func:`sign_vector` packs is clear; a field with one encoding needs it."""
    used = _input_int(n_bits, "n_bits") % 8
    return used == 0 or packed[-1] >> used == 0


def _pair_stages(cur, nxt, gap: int, count: int):
    """``count`` FWHT stages on the pairs ``gap``, ``2 gap``, ... apart,
    each as add/subtract runs over the contiguous ``(-1, 2, h)`` halves of
    ``cur`` into the same-sized ``nxt``; returns ``(result, other buffer)``."""
    for q in range(count):
        src, dst = cur.reshape(-1, 2, gap << q), nxt.reshape(-1, 2, gap << q)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        cur, nxt = nxt, cur
    return cur, nxt


def _int_type(bound: int):
    """The narrowest of int16, int32 and int64 that holds ``+-bound``, a
    power of two."""
    return np.int16 if bound <= 1 << 14 else np.int32 if bound <= 1 << 30 else np.int64


@cache
def _byte_table(w: int, dtype) -> np.ndarray:
    """Row ``b`` is ``H_w`` times the +/-1 signs of the low ``w`` bits of
    byte ``b`` (bit ``j`` set: sign ``j`` is -1), as read-only integers."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    signs = 1 - 2 * bits[:, :w].astype(dtype)
    table = _pair_stages(signs, np.empty_like(signs), 1, w.bit_length() - 1)[0]
    table.flags.writeable = False  # every caller shares it
    return table


def fwht_sign_bits(packed, d: int, *, out=None) -> np.ndarray:
    """``fwht(unpack_sign_bits(packed, d), normalize=True)``, bit for bit,
    with no float stage: one vector per ``bytes`` or per uint8 row
    ``(..., ceil(d/8))``, as :func:`sign_vector` packs them.  The result
    goes into a new array, or into ``out`` as in :func:`fwht` (a buffer
    that does not overlap ``packed``).

    Every partial sum of the transform of a +/-1 vector is an integer of
    magnitude at most ``d`` (at most ``2^s`` after ``s`` stages), exact in
    any order and in any integer type that holds it, and so is each float
    partial sum of :func:`fwht`; the one rounding is the division by
    ``sqrt(d)``.  The first ``log2 w`` stages (``w = min(d, 8)``) are one
    ``take`` of each byte's row of :func:`_byte_table`.  The rest run on
    the byte index with the rows inside it, as :func:`_pair_stages`: first
    its low bits, laid out (by a transpose of the bytes) above its high
    bits, then, after one transpose, its high bits, so every run spans at
    least ``_SIGN_RUN_ELEMS`` elements where ``d`` allows.  Each half runs
    in the narrowest integer type that holds its sums (:func:`_int_type`:
    int16 up to ``2^14``, int32 up to ``2^30``), so the transpose may widen.
    """
    d = check_dim(d)
    rows = _sign_rows(packed, d)
    out = _result_buffer(out, rows, rows.shape[:-1] + (d,))
    rows = rows.reshape(-1, rows.shape[-1])
    m, w = rows.shape[0], min(d, 8)
    if m == 0:
        return out
    stages = rows.shape[1].bit_length() - 1
    late = 0  # stages on the high bits of the byte index, run after the transpose
    while late < stages // 2 and (m * w) << late < _SIGN_RUN_ELEMS:
        late += 1
    hi, lo = 1 << late, 1 << (stages - late)
    early, wide = _int_type(w * lo), _int_type(d)
    pair = np.empty((2, m * d), early)
    np.take(_byte_table(w, early), rows.reshape(m, hi, lo).T, axis=0,
            out=pair[0].reshape(lo, hi, m, w), mode="clip")
    cur, nxt = _pair_stages(pair[0], pair[1], hi * m * w, stages - late)
    if late:
        dst, spare = nxt, cur
        # Widen in the transpose; the pair's bytes are one buffer of the wide
        # type, twice as wide (lo >= hi, so w * lo > 2^14 once d > 2^30).
        if early is not wide:
            dst, spare = np.empty(m * d, wide), pair.reshape(-1).view(wide)
        np.copyto(dst.reshape(hi, lo, m, w), cur.reshape(lo, hi, m, w).transpose(1, 0, 2, 3))
        cur, nxt = _pair_stages(dst, spare, lo * m * w, late)
    np.divide(cur.reshape(hi, lo, m, w).transpose(2, 0, 1, 3), math.sqrt(d),
              out=out.reshape(m, hi, lo, w))
    return out


def rotate_many(x, layers: int, seeds, inverse: bool = False) -> np.ndarray:
    """Apply independently seeded rotations in one numpy batch.

    ``x`` is either a single vector (broadcast to every seed) or a matrix of
    shape ``(n_seeds, d)`` with one row per seed; it must be finite.  Returns
    ``(n_seeds, d)``.  Forward maps ``y = R_k x``; ``inverse=True`` maps ``y = R_k^{-1} x``.
    """
    seeds = as_keys(seeds, "seeds")
    x = _input_array(x, "x", (1, 2), finite=True)
    d = check_dim(x.shape[-1])
    if seeds.size == 0:
        raise ValueError("seeds must name at least one rotation")
    if x.ndim == 2 and x.shape[0] != seeds.size:
        raise ValueError("row count must match the number of seeds")
    layers = _input_int(layers, "layers", 0, MAX_LAYERS)
    out = np.broadcast_to(x, (seeds.size, d)).copy()
    _rotate_rows(out, layers, seeds, inverse)
    return out


def _rotate_rows(out, layers: int, seeds, inverse: bool) -> None:
    """:func:`rotate_many` in place on the C-contiguous ``(n_seeds, d)``
    float64 rows ``out``, drawing each sign plane as it is applied."""
    d = out.shape[1]
    if not inverse:
        for layer in range(1, layers + 1):
            out *= layer_signs(seeds, layer, d)
            fwht(out, normalize=True, out=out)
    else:
        for layer in range(layers, 0, -1):
            fwht(out, normalize=True, out=out)
            out *= layer_signs(seeds, layer, d)


def _fwht_head(v, k: int) -> np.ndarray:
    """``fwht(v, normalize=True)[:, :k]`` of the C-contiguous ``(m, d)``
    rows ``v``, bit for bit, as a new C-contiguous ``(m, k)`` array; ``v``
    is overwritten.

    Outputs ``i < k`` need the first ``log2 k`` stages in full (the
    ``k``-point transforms inside each contiguous group of ``k``) and then
    only the top half of every later stage, which adds groups ``2q`` and
    ``2q + 1`` in natural order.  A block is read as the transposed view
    ``(rows, k, d/k)`` and the ``log2 k`` stages of :func:`_stage` run
    along its ``k`` axis, so the first writes the contiguous layout in
    which each output's ``d/k`` partial sums are halved.  Rows go through
    in blocks of about ``FWHT_BLOCK_ELEMS`` elements, so the buffers a block
    passes through stay in cache.
    """
    m, d = v.shape
    step = max(1, FWHT_BLOCK_ELEMS // d)
    out = np.empty((m, k))
    scratch = np.empty(min(step, m) * d)
    for lo in range(0, m, step):
        block = v[lo:lo + step]
        rows, g = block.shape[0], d // k
        src, dst = block.reshape(-1), scratch[:block.size]
        parts = block.reshape(rows, g, k).transpose(0, 2, 1)
        for _ in range(k.bit_length() - 1):
            _stage(parts, dst.reshape(rows, k, g))
            parts, src, dst = dst.reshape(rows, k, g), dst, src
        while g > 1:
            g //= 2
            halved = dst[:rows * k * g].reshape(rows, k, g)
            np.add(parts[..., 0::2], parts[..., 1::2], out=halved)
            parts, src, dst = halved, dst, src
        np.divide(parts.reshape(rows, k), math.sqrt(d), out=out[lo:lo + step])
    return out


def _first_layer_table(xs):
    """The first layer ``Hn D_1 x`` of each row ``x`` of the ``(n, d)`` rows
    ``xs``, gathered from a table of every sign pattern of ``D_1`` on the
    row's support ``S``, or ``None`` when a row has more than two nonzeros.

    Returns ``gather(seeds)``: a new C-contiguous ``(len(seeds), d)`` array
    whose row ``r`` is layer 1 of row ``r % n`` under ``seeds[r]``.  The
    table holds ``2^|S|`` rows per row of ``xs``, built once; a seed picks
    its row by the signs of ``D_1`` on ``S``, and only the first ``width``
    (a power of two covering every support) signs of each plane are drawn.
    A gathered row equals the rotated row as a value, but an exact zero may
    differ in sign, since the signs of ``D_1`` off ``S`` never touch it.
    """
    supports = [np.flatnonzero(x) for x in xs]
    if max(s.size for s in supports) > 2:
        return None
    n, d = xs.shape
    sizes = [1 << s.size for s in supports]
    offsets = np.cumsum([0] + sizes[:-1])
    pos = np.zeros((n, 2), dtype=np.intp)
    weight = np.zeros((n, 2), dtype=np.intp)  # the value of bit j of a pattern, 0 past |S|
    table = np.zeros((sum(sizes), d))
    for c, s in enumerate(supports):
        pattern = np.arange(sizes[c])  # bit j set: the sign at the j-th entry of S is -1
        for j, i in enumerate(s):
            signs = 1.0 - 2.0 * ((pattern >> j) & 1)
            table[offsets[c] + pattern, i] = xs[c, i] * signs
            pos[c, j], weight[c, j] = i, 1 << j
    fwht(table, normalize=True, out=table)
    width = 1 << int(max((s[-1] for s in supports if s.size), default=0)).bit_length()
    rows = np.arange(n)[:, None]

    def gather(seeds):
        neg = (layer_signs(seeds, 1, width) < 0).reshape(-1, n, width)
        return table[(offsets + (neg[:, rows, pos] * weight).sum(axis=2)).ravel()]

    return gather


def run_ordered(jobs, fn, threads: int = 1):
    """Yield ``fn(job)`` for each job, in job order regardless of scheduling.

    With ``threads > 1`` the jobs run on a thread pool that holds at most
    ``2 * threads`` jobs submitted and not yet yielded, so a slow consumer
    keeps at most that many results (and ``threads`` running jobs) alive.
    A ``threads`` below 1 or not an integer raises ``ValueError`` first.
    """
    threads = _input_int(threads, "threads", 1)
    if threads == 1:
        yield from map(fn, jobs)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for job in jobs:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, job))
        while pending:
            yield pending.popleft().result()


def map_trials(xs, layers: int, trials: int, master_seed: int, fn, *,
               head=None, threads: int = 1):
    """The one Monte Carlo kernel: rotate the ``(n, d)`` rows ``xs`` in each
    of ``trials`` trials, row ``c`` of trial ``t`` under seed
    ``derive_seed(master_seed, t * n + c)``, and yield ``fn(y, seeds)`` per
    chunk of whole trials, in trial order (:func:`run_ordered`), so
    reductions over them do not depend on ``threads``.

    ``y`` is a new C-contiguous float64 array of the chunk's rotated rows in
    seed order; with ``head=k`` (a power of two up to ``d``) only their
    first ``k`` columns, the only ones the last layer computes
    (:func:`_fwht_head`).  Chunks hold about ``TRIAL_CHUNK_ELEMS`` elements
    in whole blocks of ``TRIAL_BLOCK`` trials (at least one).  ``xs`` is
    checked as :func:`rotate_many` checks it, and every measurement reports
    a standard error over its trials (:func:`mean_se`) or pools several
    rotations, so ``trials < 2`` raises ``ValueError``.  When every row has
    at most two nonzeros, layer 1 is gathered (:func:`_first_layer_table`),
    so a row may differ from :func:`rotate_many`'s in the sign of an exact
    zero, which no estimator reads; no encoder uses this kernel.
    """
    xs = _input_array(xs, "xs", 2, nonempty=True, finite=True)
    n, d = xs.shape
    check_dim(d)
    layers = _input_int(layers, "layers", 0, MAX_LAYERS)
    if head is not None and not check_dim(head) <= d:
        raise ValueError(f"head must not exceed the dimension {d}, got {head}")
    trials = _input_int(trials, "trials", 2, need="need at least two trials")
    gather = _first_layer_table(xs) if layers else None
    in_full = layers if head is None else layers - 1  # layers computed in full
    step = max(1, TRIAL_CHUNK_ELEMS // (n * d) // TRIAL_BLOCK) * TRIAL_BLOCK

    def rotate(seeds):
        if gather is None:
            y, done = np.tile(xs, (len(seeds) // n, 1)), 0
        else:
            y, done = gather(seeds), 1
        for layer in range(done + 1, in_full + 1):
            y *= layer_signs(seeds, layer, d)
            fwht(y, normalize=True, out=y)
        if head is None:
            return y
        if done == layers:  # the gather or no layer at all: nothing left to prune
            return np.ascontiguousarray(y[:, :head])
        y *= layer_signs(seeds, layers, d)
        return _fwht_head(y, head)

    def chunk(lo):
        hi = min(lo + step, trials)
        seeds = derive_seeds(master_seed, lo * n, (hi - lo) * n)
        return fn(rotate(seeds), seeds)

    return run_ordered(range(0, trials, step), chunk, threads)


def map_rotated(xu, layers: int, trials: int, master_seed: int, fn,
                threads: int = 1, *, head=None) -> np.ndarray:
    """``fn(u)`` of each :func:`map_trials` chunk of the rows
    ``u = sqrt(d) R xu`` (row ``t`` seeded by ``derive_seed(master_seed, t)``;
    with ``head=k`` their first ``k`` coordinates), concatenated in trial
    order; ``xu`` is rotated as given, so callers pass it already unit-norm."""
    xu = _input_array(xu, "xu", 1)
    root_d = math.sqrt(xu.size)

    def scaled(u, seeds):
        u *= root_d
        return fn(u)

    return np.concatenate(list(map_trials(xu[None], layers, trials, master_seed, scaled,
                                          head=head, threads=threads)))


def mean_se(samples):
    """``(mean, standard error of the mean)`` of per-trial samples, the
    latter from the ``ddof=1`` standard deviation."""
    s = np.asarray(samples)
    return float(np.mean(s)), float(np.std(s, ddof=1) / math.sqrt(s.size))


def sum_sq(v):
    """Sum of squares along the last axis, in float64.

    The one way the package reduces a vector to a norm: ``add.reduce(v * v)``
    in numpy's fixed pairwise order, with no BLAS call, so the result (and
    every payload scale and report row derived from it) is the same for any
    BLAS build and BLAS thread count.
    """
    v = _input_array(v, "v")
    return np.add.reduce(v * v, axis=-1)


def unit_vector(x):
    """``(x / |x|_2, |x|_2)`` of a vector ``x``; raises ``ValueError``
    unless ``x`` is non-zero and finite, with a norm that does not overflow."""
    x = _input_array(x, "x", 1)
    with np.errstate(over="ignore"):
        norm = math.sqrt(sum_sq(x))
    if not 0.0 < norm < math.inf:  # NaN and inf entries make the norm NaN or inf
        raise ValueError("input must be finite and non-zero")
    return x / norm, norm


def apply_rotation(x, spec: RotationSpec) -> np.ndarray:
    """Apply ``R_k`` for ``spec`` to a vector (identity when ``layers=0``)."""
    x = _input_array(x, "x", 1, dim=spec.dim)
    return rotate_many(x, spec.layers, [spec.seed])[0]


def inverse_rotation(y, spec: RotationSpec) -> np.ndarray:
    """Apply ``R_k^{-1} = D_1 Hn D_2 Hn ... D_k Hn`` for ``spec``."""
    y = _input_array(y, "y", 1, dim=spec.dim)
    return rotate_many(y, spec.layers, [spec.seed], inverse=True)[0]


def rotate_normalized(x, spec: RotationSpec):
    """Rotate and normalize: ``(U, scale)`` with ``U = sqrt(d) R x / |x|_2``
    and ``scale = |x|_2 / sqrt(d)``, so ``R x = scale * U`` (``U = 0`` for
    a zero input)."""
    y = apply_rotation(x, spec)
    with np.errstate(over="ignore"):  # an overflowing norm gives an infinite scale
        scale = math.sqrt(sum_sq(y)) / math.sqrt(spec.dim)  # rotation preserves |x|_2
    u = y / scale if scale > 0.0 else np.zeros(spec.dim)
    return u, scale
