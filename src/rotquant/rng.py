"""Deterministic pseudo-random streams (SplitMix64 + xoshiro256++).

Every random quantity in this package -- sign planes, stochastic-rounding
noise, Gaussian reference samples -- is drawn from the generators in this
module, keyed by explicit 64-bit seeds.  The integer pipeline is exact, so
derived bit streams are identical on every platform.

Stream layout conventions (fixed; changing them changes every measurement):

* ``mix64(x)`` is a single SplitMix64 output step for state ``x``.  Derived
  seeds are ``mix64(master + index)``.
* A xoshiro256++ stream keyed by ``k`` is initialised with the first four
  outputs of the SplitMix64 sequence started at state ``k``.
* Sign bits come off each 64-bit output word most-significant bit first;
  a 0 bit maps to +1 and a 1 bit maps to -1.
* Uniform doubles use the top 53 bits of a word: ``(w >> 11) * 2**-53``.
* Gaussians are Box-Muller pairs; consecutive words feed one pair.

``Xoshiro256pp`` draws words along three paths that give the same words.

* Loop: a single stream's request of fewer than ``_LANES_MIN_WORDS`` words
  steps the recurrence on Python ints and writes into an ``array('Q')``.
* Batch: a batch of streams (the trial harness) keeps its state as four
  contiguous ``uint64`` rows and updates them in place with numpy ufuncs,
  one word of every stream per step.
* Lanes: a longer single-stream request (such as BSQ rounding noise) splits
  the stream into lanes of ``span`` words that the batch kernel steps
  together, and reads their words lane-major.

The xoshiro256 state update ``T`` is linear over GF(2)^256 (only the ``++``
output scrambler is not), so lane ``i`` starts exactly at ``T^(i * span)``
of the stream's state, reached through cached tables for ``T^(2^k)``
(Blackman and Vigna, "Scrambled linear pseudorandom number generators", ACM
TOMS 47(4), 2021; Haramoto et al., "Efficient jump ahead for F2-linear random
number generators", INFORMS J. Comput. 20(3), 2008).  A stream's words
therefore do not depend on the path that draws them, on how many streams
share its batch, or on how they are split across calls.
"""

from __future__ import annotations

import operator
from array import array
from functools import cache

import numpy as np

__all__ = [
    "MASK64",
    "splitmix64",
    "mix64",
    "derive_seed",
    "Xoshiro256pp",
]

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Batch-kernel shift amounts as uint64 scalars; a Python int would be
# converted again on every ufunc call.
_17, _19, _23, _41, _45 = (np.uint64(k) for k in (17, 19, 23, 41, 45))


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state by one step; return (new_state, output)."""
    state = (state + _GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return state, z ^ (z >> 31)


def mix64(x: int) -> int:
    """Single SplitMix64 output for state ``x`` (seed-derivation primitive)."""
    return splitmix64(x & MASK64)[1]


def _input_int(value, name: str, lo: int = 0, hi: int | None = None, *, need: str = "") -> int:
    """The one gate for an integer argument ``name``: ``value`` through
    ``operator.index`` (bool and numpy integers pass) as an ``int`` in
    ``lo .. hi`` (``hi=None``: no upper end).  Anything else, such as a float
    that a cast would truncate, raises ``ValueError`` naming ``name`` and the
    range, built only on failure; an integer out of range raises the
    caller's documented message ``need`` instead, where there is one."""
    try:
        v = operator.index(value)
    except TypeError:
        v, need = lo - 1, ""  # not an integer: outside every range, so the named message
    if lo <= v and (hi is None or v <= hi):
        return v
    span = f">= {lo}" if hi is None else f"in {lo} .. {'2**64 - 1' if hi == MASK64 else hi}"
    raise ValueError(need or f"{name} must be an integer {span}, got {value!r}")


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: ``mix64(master + index)`` with wrapping 64-bit add."""
    master = _input_int(master, "master seed", 0, MASK64)
    index = _input_int(index, "index")
    return mix64((master + index) & MASK64)


def derive_seeds(master: int, start: int, count: int) -> np.ndarray:
    """Vector of per-trial seeds for indices ``start .. start+count-1``."""
    master = _input_int(master, "master seed", 0, MASK64)
    start = _input_int(start, "start")
    count = _input_int(count, "count")
    with np.errstate(over="ignore"):
        states = np.uint64(master) + np.arange(start, start + count, dtype=np.uint64)
        return _splitmix_step_vec(states)[1]


def _splitmix_step_vec(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    state = state + np.uint64(_GOLDEN)
    z = state.copy()
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return state, z ^ (z >> np.uint64(31))


def as_keys(keys, name: str = "keys") -> np.ndarray:
    """``keys`` (an integer, a sequence of integers or an integer array) as a
    ``uint64`` array of at least one axis.  Non-integers (such as ``1.5``,
    which a ``uint64`` cast would truncate) and integers outside
    ``0 .. 2**64 - 1`` raise ``ValueError``."""
    error = ValueError(f"{name} must be unsigned 64-bit integers")
    if isinstance(keys, (np.ndarray, np.generic)):
        k = np.atleast_1d(keys)
        if k.size and (k.dtype.kind not in "iu" or (k.dtype.kind == "i" and k.min() < 0)):
            raise error
        return k.astype(np.uint64, copy=False)
    # Element by element: numpy would infer float64 for [1, 2**63].
    k = np.atleast_1d(np.array(keys, dtype=object))
    try:
        return np.array([operator.index(v) for v in k.ravel()], dtype=np.uint64).reshape(k.shape)
    except (TypeError, OverflowError):
        raise error from None


# Single-stream requests of at least this many words are drawn by the lanes
# kernel, shorter ones by the Python-int loop.  The two cost the same at
# about 320-380 words on a 2-vCPU Xeon; at 512 the lanes are ~1.6x faster.
_LANES_MIN_WORDS = 512

# A jump table holds a power of T, the linear xoshiro256 state update, as 64
# nibble tables of 16 states (the method of four Russians), flattened to shape
# (64 * 16, 4): row 16 * c + v is the image of the state whose nibble c is v
# and whose other bits are 0.  Nibble c holds bits 4c .. 4c + 3 of the state
# read as one 256-bit little-endian integer (s0 lowest).
_NIBBLE_ROWS = np.arange(0, 64 * 16, 16)
_BIT_ROWS = (_NIBBLE_ROWS[:, None] + (1 << np.arange(4))).ravel()


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply one jump ``table`` to ``states`` of shape ``(n, 4)``: the XOR of
    the images of their 64 nibbles."""
    b = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T
    rows = np.empty((32, 2, len(states)), dtype=np.intp)
    np.bitwise_and(b, 15, out=rows[:, 0])
    np.right_shift(b, 4, out=rows[:, 1])
    rows = rows.reshape(64, -1)
    rows += _NIBBLE_ROWS[:, None]
    # Nibble-major, so that each XOR below runs over whole blocks of states.
    images = table.take(rows, axis=0)
    half = 32
    while half:
        np.bitwise_xor(images[:half], images[half:2 * half], out=images[:half])
        half //= 2
    return images[0]


def _nibble_tables(bit_images: np.ndarray) -> np.ndarray:
    """A jump table from the images of the 256 one-bit states (bit ``i`` of
    nibble ``c`` in row ``4 * c + i``): each nibble value's image is the XOR
    of its bits' images."""
    bits = bit_images.reshape(64, 4, 1, 4)
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for i in range(4):
        np.bitwise_xor(table[:, :1 << i], bits[:, i], out=table[:, 1 << i:2 << i])
    return table.reshape(-1, 4)


@cache
def _jump_table(k: int) -> np.ndarray:
    """``T^(2^k)`` as a read-only jump table: ``T`` itself (one batch-kernel
    step of each one-bit state) for ``k = 0``, else the square of
    ``_jump_table(k - 1)``.  Keyed by the power, so racing threads that
    build one table twice get equal tables."""
    if k:
        half = _jump_table(k - 1)
        images = _jump(half, half[_BIT_ROWS])
    else:
        bit = np.arange(256)
        gen = Xoshiro256pp._from_state(np.zeros((4, 256)))
        gen._state[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        gen._batch(1)
        images = gen._state.T
    table = _nibble_tables(images)
    table.flags.writeable = False  # every caller shares it
    return table


# Streams per Box-Muller block in ``Xoshiro256pp.gaussians``.  A fixed
# constant, not an option; no value depends on it, since each stream's words
# are its own.
_GAUSSIAN_BLOCK_STREAMS = 4096


def _lane_span(count: int) -> int:
    """Words per lane for a ``count``-word request: a power of two near
    ``sqrt(count) / 4``, which balances the fixed cost of a batch-kernel step
    against the per-lane cost of the lane starts."""
    return 1 << (count.bit_length() - 4) // 2


class Xoshiro256pp:
    """A batch of independent xoshiro256++ streams, one per key.

    Parameters
    ----------
    keys : int or sequence of int
        64-bit stream keys.  Each key seeds one stream via the SplitMix64
        fill described in the module docstring.
    """

    def __init__(self, keys):
        keys = as_keys(keys)
        if keys.ndim != 1 or keys.size == 0:
            raise ValueError("keys must be a non-empty 1-d sequence")
        # Four contiguous rows: self._state[i] holds state word s_i of every stream.
        if keys.size == 1:  # one stream: the Python-int fill costs less
            sm, fill = int(keys[0]), []
            for _ in range(4):
                sm, word = splitmix64(sm)
                fill.append(word)
            self._state = np.array(fill, dtype=np.uint64).reshape(4, 1)
            return
        state = np.empty((4, keys.size), dtype=np.uint64)
        sm = keys.copy()
        with np.errstate(over="ignore"):
            for lane in state:
                sm, lane[:] = _splitmix_step_vec(sm)
        self._state = state

    @classmethod
    def _from_state(cls, state: np.ndarray) -> "Xoshiro256pp":
        """Streams resuming from ``state``, shape ``(4, n_streams)``."""
        gen = cls.__new__(cls)
        gen._state = np.array(state, dtype=np.uint64, order="C")
        return gen

    @property
    def n_streams(self) -> int:
        return self._state.shape[1]

    def words(self, count: int) -> np.ndarray:
        """``count`` successive words per stream, shape ``(n_streams, count)``."""
        count = _input_int(count, "count")
        if self.n_streams > 1:
            return self._batch(count)
        if count >= _LANES_MIN_WORDS:
            return self._lanes(count).reshape(1, count)
        return np.frombuffer(self._one_stream(count), dtype=np.uint64).reshape(1, count)

    def _batch(self, count: int) -> np.ndarray:
        """The batch kernel: every stream steps together, one ufunc per
        operation over the four state rows."""
        s0, s1, s2, s3 = self._state
        t = np.empty_like(s0)
        out = np.empty((count, self.n_streams), dtype=np.uint64)
        for w in out:
            np.add(s0, s3, out=t)
            np.left_shift(t, _23, out=w)
            np.right_shift(t, _41, out=t)
            np.bitwise_or(w, t, out=w)
            np.add(w, s0, out=w)
            np.left_shift(s1, _17, out=t)
            np.bitwise_xor(s2, s0, out=s2)
            np.bitwise_xor(s3, s1, out=s3)
            np.bitwise_xor(s1, s2, out=s1)
            np.bitwise_xor(s0, s3, out=s0)
            np.bitwise_xor(s2, t, out=s2)
            np.left_shift(s3, _45, out=t)
            np.right_shift(s3, _19, out=s3)
            np.bitwise_or(s3, t, out=s3)
        return np.ascontiguousarray(out.T)

    def _one_stream(self, count: int) -> array:
        """The single-stream kernel: xoshiro256++ stepped on Python ints."""
        mask = MASK64
        s0, s1, s2, s3 = self._state[:, 0].tolist()
        out = array("Q", [0]) * count
        for j in range(count):
            t = (s0 + s3) & mask
            out[j] = (((t << 23) | (t >> 41)) + s0) & mask
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        self._state[:, 0] = (s0, s1, s2, s3)
        return out

    def _lanes(self, count: int) -> np.ndarray:
        """The lanes kernel for one stream: lane ``i`` starts at
        ``T^(i * span)`` of the state and the batch kernel steps every lane
        ``span`` times; the words are read lane-major and the stream is left
        at ``T^count`` of its state."""
        span = _lane_span(count)
        n_lanes = -(-count // span)
        first = span.bit_length() - 1
        starts = self._state.T.copy()
        for k in range(first, first + (n_lanes - 1).bit_length()):
            starts = np.concatenate([starts, _jump(_jump_table(k), starts[:n_lanes - len(starts)])])
        lanes = Xoshiro256pp._from_state(starts.T)
        last = count - (n_lanes - 1) * span  # words from the last lane, 1 .. span
        out = np.empty((n_lanes, span), dtype=np.uint64)
        out[:, :last] = lanes._batch(last)
        self._state[:] = lanes._state[:, -1:]
        if last < span:
            out[:, last:] = lanes._batch(span - last)
        return out.reshape(-1)[:count]

    def sign_values(self, count: int) -> np.ndarray:
        """``count`` signs per stream as float64 +/-1, MSB-first per word."""
        count = _input_int(count, "count")
        w = self.words((count + 63) // 64)
        bits = np.unpackbits(w.astype(">u8").view(np.uint8), axis=1, count=count)
        signs = bits.astype(np.float64)
        signs *= -2.0
        signs += 1.0
        return signs

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` uniforms in [0, 1) per stream."""
        w = self.words(count)
        return (w >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gaussians(self, count: int) -> np.ndarray:
        """``count`` standard normals per stream (Box-Muller), drawn
        ``_GAUSSIAN_BLOCK_STREAMS`` streams at a time so the temporaries stay
        a small multiple of one block, whatever the number of streams."""
        count = _input_int(count, "count")
        pairs = (count + 1) // 2
        z = np.empty((self.n_streams, 2 * pairs), dtype=np.float64)
        for lo in range(0, self.n_streams, _GAUSSIAN_BLOCK_STREAMS):
            state = self._state[:, lo:lo + _GAUSSIAN_BLOCK_STREAMS]
            block = Xoshiro256pp._from_state(state)
            w = block.words(2 * pairs)
            state[:] = block._state
            # u1 in (0, 1] so the log is finite; u2 in [0, 1).
            u1 = ((w[:, 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
            u2 = (w[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
            r = np.sqrt(-2.0 * np.log(u1))
            theta = (2.0 * np.pi) * u2
            z[lo:lo + len(w), 0::2] = r * np.cos(theta)
            z[lo:lo + len(w), 1::2] = r * np.sin(theta)
        return z[:, :count]
