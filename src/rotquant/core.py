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
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rng import MASK64, Xoshiro256pp, as_keys, derive_seeds

__all__ = [
    "MAX_LAYERS",
    "check_dim",
    "RotationSpec",
    "fwht",
    "layer_signs",
    "sign_vector",
    "unpack_sign_bits",
    "apply_rotation",
    "inverse_rotation",
    "rotate_normalized",
    "rotate_many",
    "TRIAL_CHUNK_ELEMS",
    "TRIAL_BLOCK",
    "FWHT_BLOCK_ELEMS",
    "run_ordered",
    "map_trials",
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


def _as_int(value, name: str) -> int:
    """``value`` as a plain ``int``; non-integers (such as ``1.5``) are rejected."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_dim(d) -> int:
    """Validate a transform dimension: a positive power of two."""
    d = _as_int(d, "dimension")
    if d < 1 or (d & (d - 1)) != 0:
        raise ValueError(f"dimension must be a positive power of two, got {d}")
    return d


@dataclass(frozen=True)
class RotationSpec:
    """Rotation pipeline description: dimension, layer count, seed."""

    dim: int
    layers: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "layers", _as_int(self.layers, "layers"))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        if not 0 <= self.layers <= MAX_LAYERS:
            raise ValueError(f"layers must be in 0..{MAX_LAYERS}, got {self.layers}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def _butterfly(src, dst, h: int) -> None:
    """One FWHT stage from ``src`` into the distinct buffer ``dst``: in every
    group of ``2h`` coordinates, ``dst[j] = src[j] + src[j+h]`` and
    ``dst[j+h] = src[j] - src[j+h]`` for ``j < h``."""
    if 2 <= h <= 8:
        # Complex add and subtract are the float64 add and subtract of each
        # component, so stage h on a complex128 view (h/2 complex apart) does
        # the same arithmetic in half as many strided calls.
        src, dst, h = src.view(np.complex128), dst.view(np.complex128), h // 2
    if h <= 4:
        # Numpy's inner loop would have length h; loop over columns instead.
        s, t = src.reshape(-1, 2 * h), dst.reshape(-1, 2 * h)
        for j in range(h):
            np.add(s[:, j], s[:, j + h], out=t[:, j])
            np.subtract(s[:, j], s[:, j + h], out=t[:, j + h])
    else:
        s, t = src.reshape(-1, 2, h), dst.reshape(-1, 2, h)
        np.add(s[:, 0], s[:, 1], out=t[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=t[:, 1])


def _fwht_rows(src, dst, normalize: bool) -> None:
    """FWHT of the rows of ``src`` into ``dst``, both C-contiguous
    ``(m, d)``; ``dst`` is either ``src`` itself or does not overlap it.

    Stages with ``h < FWHT_BLOCK_ELEMS`` run on one block of about
    ``FWHT_BLOCK_ELEMS`` elements at a time (whole rows, or contiguous
    slices of one long row), alternating between two scratch buffers that
    stay in cache.  Any larger stages then run over ``dst`` in place, on
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
    stages = [1 << k for k in range(width.bit_length() - 1)]
    for lo in range(0, blocks_in.shape[0], step):
        cur, out = blocks_in[lo:lo + step], blocks_out[lo:lo + step]
        bufs = scratch[:, :cur.shape[0]]
        for i, h in enumerate(stages):
            nxt = out if i == len(stages) - 1 else bufs[i % 2]
            _butterfly(cur, nxt, h)
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


def fwht(v, normalize: bool = False, *, out=None) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (Sylvester ordering).

    Accepts a single vector or a batch ``(..., d)``; ``d`` must be a power of
    two.  With ``normalize=True`` the result is divided by ``sqrt(d)``, which
    makes the transform orthogonal and involutive.  The result goes into a
    new array, or into ``out``: a writable C-contiguous float64 array of the
    input's shape that is either the input itself (in place) or does not
    overlap it.  ``v`` is left unchanged unless it is ``out``.

    The kernel runs the ``log2 d`` butterfly stages ``h = 1, 2, 4, ...`` on
    cache-sized row blocks (``FWHT_BLOCK_ELEMS``), each stage writing
    ``top + bottom`` and ``top - bottom`` into a second buffer.  Whatever the
    blocking, every output element sees the same additions and subtractions
    of the same pairs in the same stage order, then the same division by
    ``sqrt(d)``, so the output is bit-identical to the textbook iterative
    butterfly and does not depend on the batch size or the block size.
    """
    a = np.asarray(v, dtype=np.float64)
    if a.ndim == 0:
        raise ValueError("input must have at least one axis")
    d = check_dim(a.shape[-1])
    if out is None:
        out = np.empty(a.shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == a.shape and out.flags.c_contiguous
              and out.flags.writeable):
        raise ValueError("out must be a writable C-contiguous float64 array "
                         "of the input's shape")
    elif out is not a and np.may_share_memory(a, out):
        raise ValueError("out must be the input itself or not overlap it")
    rows = out.reshape(-1, d)
    src = rows if out is a else np.ascontiguousarray(a).reshape(-1, d)
    _fwht_rows(src, rows, normalize)
    return out


def layer_signs(seeds, layer: int, dim: int) -> np.ndarray:
    """Sign planes for one layer across many seeds, shape ``(n_seeds, dim)``.

    Row ``i`` holds the +/-1 diagonal for layer ``layer`` of a rotation
    seeded by ``seeds[i]``.
    """
    dim = check_dim(dim)
    layer = _as_int(layer, "layer")
    if not 1 <= layer <= MAX_LAYERS:
        raise ValueError(f"layer must be in 1..{MAX_LAYERS}, got {layer}")
    keys = as_keys(seeds, "seeds") ^ np.uint64(layer)
    return Xoshiro256pp(keys).sign_values(dim)


def sign_vector(v) -> bytes:
    """Pack coordinate signs one bit each (clear = +1; sign(0) = +1).

    Bit ``j`` of byte ``j // 8`` holds coordinate ``j``, little-endian
    within each byte.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("input must be a non-empty 1-d vector")
    return np.packbits(v < 0, bitorder="little").tobytes()


def unpack_sign_bits(data: bytes, d: int) -> np.ndarray:
    """Inverse of :func:`sign_vector`: packed bits to a float64 +/-1 vector."""
    if len(data) != (d + 7) // 8:
        raise ValueError("packed sign length does not match dimension")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return 1.0 - 2.0 * bits[:d].astype(np.float64)


def _as_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("input must be a 1-d vector")
    if x.size != dim:
        raise ValueError(f"vector length {x.size} does not match dimension {dim}")
    return x


def rotate_many(x, layers: int, seeds, inverse: bool = False) -> np.ndarray:
    """Apply independently seeded rotations in one numpy batch.

    ``x`` is either a single vector (broadcast to every seed) or a matrix of
    shape ``(n_seeds, d)`` with one row per seed; it must be finite.  Returns
    ``(n_seeds, d)``.  Forward maps ``y = R_k x``; ``inverse=True`` maps ``y = R_k^{-1} x``.
    """
    seeds = as_keys(seeds, "seeds")
    layers = _as_int(layers, "layers")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        d = check_dim(x.shape[0])
    elif x.ndim == 2:
        d = check_dim(x.shape[1])
        if x.shape[0] != seeds.size:
            raise ValueError("row count must match the number of seeds")
    else:
        raise ValueError("input must be 1-d or 2-d")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    if not 0 <= layers <= MAX_LAYERS:
        raise ValueError(f"layers must be in 0..{MAX_LAYERS}, got {layers}")
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


def run_ordered(jobs, fn, threads: int = 1):
    """Yield ``fn(job)`` for each job, in job order regardless of scheduling.

    With ``threads > 1`` the jobs run on a thread pool that holds at most
    ``2 * threads`` jobs submitted and not yet yielded, so a slow consumer
    keeps at most that many results (and ``threads`` running jobs) alive.
    """
    if threads <= 1:
        yield from map(fn, jobs)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for job in jobs:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, job))
        while pending:
            yield pending.popleft().result()


def map_trials(master_seed: int, trials: int, row_elems: int, fn, *,
               seeds_per_trial: int = 1, threads: int = 1):
    """Run ``trials`` independently seeded trials in chunks of whole trials.

    Trial ``i`` owns seeds ``mix64(master_seed + i * s + c)`` for
    ``c < s = seeds_per_trial``.  Chunks hold about ``TRIAL_CHUNK_ELEMS``
    elements given ``row_elems`` per trial, rounded down to whole blocks of
    ``TRIAL_BLOCK`` trials but to at least one block, so a chunk boundary
    never splits a block; ``fn(lo, hi, seeds)`` handles
    trials ``lo .. hi-1`` with their ``(hi - lo) * s`` seeds.  Yields the
    chunk results in trial order (see :func:`run_ordered`), so reductions
    over them do not depend on ``threads``.  Every Monte Carlo measurement
    reports a standard error over its trials (:func:`mean_se`) or pools
    several rotations, so ``trials < 2`` raises ``ValueError``.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    step = max(1, TRIAL_CHUNK_ELEMS // row_elems // TRIAL_BLOCK) * TRIAL_BLOCK
    spt = seeds_per_trial

    def chunk(lo):
        hi = min(lo + step, trials)
        return fn(lo, hi, derive_seeds(master_seed, lo * spt, (hi - lo) * spt))

    return run_ordered(range(0, trials, step), chunk, threads)


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
    v = np.asarray(v, dtype=np.float64)
    return np.add.reduce(v * v, axis=-1)


def unit_vector(x):
    """``(x / |x|_2, |x|_2)``; raises ``ValueError`` unless ``x`` is
    non-zero and finite, with a norm that does not overflow."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = math.sqrt(sum_sq(x))
    if not 0.0 < norm < math.inf:  # NaN and inf entries make the norm NaN or inf
        raise ValueError("input must be finite and non-zero")
    return x / norm, norm


def apply_rotation(x, spec: RotationSpec) -> np.ndarray:
    """Apply ``R_k`` for ``spec`` to a vector (identity when ``layers=0``)."""
    x = _as_vector(x, spec.dim)
    return rotate_many(x, spec.layers, [spec.seed])[0]


def inverse_rotation(y, spec: RotationSpec) -> np.ndarray:
    """Apply ``R_k^{-1} = D_1 Hn D_2 Hn ... D_k Hn`` for ``spec``."""
    y = _as_vector(y, spec.dim)
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
