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

``Xoshiro256pp`` has two kernels that produce the same words.  A single
stream (every encode and decode) steps the recurrence on Python ints and
writes into an ``array('Q')``.  A batch of streams (the trial harness) keeps
its state as four contiguous ``uint64`` lanes and updates them in place with
numpy ufuncs, one word of every stream per step.  A stream's words therefore
do not depend on how many streams share its batch, nor on how they are split
across calls.
"""

from __future__ import annotations

import operator
from array import array

import numpy as np

__all__ = [
    "MASK64",
    "splitmix64",
    "mix64",
    "derive_seed",
    "Xoshiro256pp",
]

MASK64 = (1 << 64) - 1
_MASTER_ERROR = "master seed must be an integer in 0 .. 2**64 - 1"

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


def _non_negative_int(value, error: str, limit: int | None = None) -> int:
    """``value`` as an int in ``0 .. limit``; anything else raises
    ``ValueError(error)``.  A negative master would wrap onto another seed
    and a float would be truncated, so neither is converted."""
    try:
        v = operator.index(value)
    except TypeError:
        v = -1
    if v < 0 or (limit is not None and v > limit):
        raise ValueError(error)
    return v


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: ``mix64(master + index)`` with wrapping 64-bit add."""
    master = _non_negative_int(master, _MASTER_ERROR, MASK64)
    index = _non_negative_int(index, "index must be a non-negative integer")
    return mix64((master + index) & MASK64)


def derive_seeds(master: int, start: int, count: int) -> np.ndarray:
    """Vector of per-trial seeds for indices ``start .. start+count-1``."""
    master = _non_negative_int(master, _MASTER_ERROR, MASK64)
    start = _non_negative_int(start, "start must be a non-negative integer")
    count = _non_negative_int(count, "count must be a non-negative integer")
    base = np.uint64(master)
    with np.errstate(over="ignore"):
        states = base + np.arange(start, start + count, dtype=np.uint64)
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
        # Four contiguous lanes: self._state[i] holds state word s_i of every stream.
        state = np.empty((4, keys.size), dtype=np.uint64)
        sm = keys.copy()
        with np.errstate(over="ignore"):
            for lane in state:
                sm, lane[:] = _splitmix_step_vec(sm)
        self._state = state

    @property
    def n_streams(self) -> int:
        return self._state.shape[1]

    def words(self, count: int) -> np.ndarray:
        """``count`` successive words per stream, shape ``(n_streams, count)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.n_streams == 1:
            return np.frombuffer(self._one_stream(count), dtype=np.uint64).reshape(1, count)
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

    def sign_values(self, count: int) -> np.ndarray:
        """``count`` signs per stream as float64 +/-1, MSB-first per word."""
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
        """``count`` standard normals per stream (Box-Muller)."""
        pairs = (count + 1) // 2
        w = self.words(2 * pairs)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((w[:, 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (w[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.empty((self.n_streams, 2 * pairs), dtype=np.float64)
        z[:, 0::2] = r * np.cos(theta)
        z[:, 1::2] = r * np.sin(theta)
        return z[:, :count]
