"""Bounded-support b-bit quantization of rotated coordinates.

After a k-layer rotation the normalized coordinates ``U = sqrt(d) R xu``
are near-Gaussian, so a fixed uniform grid on ``[-t_p, t_p]`` (where ``t_p``
carries standard-normal tail mass ``p`` outside) covers all but a ``p + O(1/sqrt(d))``
fraction of coordinates.  In-range coordinates are stochastically rounded to
a neighboring grid level (unbiased: ``P(up) = (z - q_i)/(q_{i+1} - q_i)``);
the rare escapes are transmitted exactly as (index, value) pairs.

The conditional expected squared rounding error at ``z`` is the closed form
``e(z) = (z - q_i)(q_{i+1} - z)`` inside a cell and 0 outside the grid;
:meth:`BsqConfig.error_function` evaluates it on the config's own grid.
``e`` vanishes at every level, so it is continuous and has total variation
``sum_cells w^2/2``, which converts Kolmogorov closeness of ``U`` to
Gaussian into a bound on the achieved error gap: the measured mean of
``e(U)`` differs from ``int e dPhi`` by at most ``1.28 TV(e) / sqrt(d)``.
:func:`verify_tv_transfer` samples it per rotation (:func:`rotquant.core.map_rotated`);
``experiments.run_bsq_transfer`` reduces the samples to the report row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import TRIAL_CHUNK_ELEMS, RotationSpec, _input_array, check_scale, inverse_rotation, map_rotated, rotate_normalized, unit_vector
from .metrics import normal_quantile
from .rng import MASK64, Xoshiro256pp, _input_int

__all__ = [
    "threshold_for_p",
    "BsqConfig",
    "BsqPayload",
    "bsq_encode",
    "bsq_decode",
    "tv_of_error_function",
    "expected_error_gaussian",
    "verify_tv_transfer",
]

MAX_BITS = 20


def threshold_for_p(p: float) -> float:
    """Two-sided tail threshold: ``t_p`` with ``P(|G| > t_p) = p``, the tail
    mass (``tail_mass`` in errors).  Finite for every real ``p`` above
    ``2**-53``; below that ``1 - p/2`` rounds to 1."""
    p = float(_input_array(p, "tail_mass", 0))
    if not 0.0 < p < 1.0:
        raise ValueError(f"tail_mass must lie strictly inside (0, 1), got {p!r}")
    q = 1.0 - p / 2.0
    if q == 1.0:
        raise ValueError(f"tail_mass {p!r} is too small: 1 - tail_mass/2 rounds to 1, "
                         "so its threshold is not finite (need tail_mass > 2**-53)")
    return normal_quantile(q)


@dataclass(frozen=True)
class BsqConfig:
    """Grid description: ``2**bits`` uniform levels with endpoints at
    ``+-t_p``; the threshold ``t_p`` is computed, and checked finite, on
    construction.  A ``bits`` other than an integer in ``1 .. MAX_BITS`` (``3.0``
    included), or a ``tail_mass`` that :func:`threshold_for_p` refuses, raises."""

    bits: int
    tail_mass: float
    threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bits", _input_int(self.bits, "bits", 1, MAX_BITS))
        object.__setattr__(self, "threshold", threshold_for_p(self.tail_mass))
        object.__setattr__(self, "tail_mass", float(self.tail_mass))

    @cached_property
    def n_levels(self) -> int:
        return 1 << self.bits

    @cached_property
    def levels(self) -> np.ndarray:
        lv = np.linspace(-self.threshold, self.threshold, self.n_levels)
        lv.flags.writeable = False
        return lv

    @cached_property
    def cell_width(self) -> float:
        return 2.0 * self.threshold / (self.n_levels - 1)

    def error_function(self, z):
        """Vectorized conditional rounding error ``e(z)``: ``(z - q_i)(q_{i+1} - z)``
        on the cell containing ``z``, exactly zero at grid levels and outside
        the grid."""
        z = _input_array(z, "z")
        lv = self.levels
        idx = np.clip(np.searchsorted(lv, z, side="right") - 1, 0, lv.size - 2)
        e = (z - lv[idx]) * (lv[idx + 1] - z)
        inside = (z >= lv[0]) & (z <= lv[-1])
        return np.where(inside, e, 0.0)


def tv_of_error_function(cfg: BsqConfig) -> float:
    """Total variation of ``e``: each cell of width ``w`` contributes ``w^2/2``
    (rise to ``w^2/4`` and back)."""
    w = np.diff(cfg.levels)
    return float(np.sum(w * w) / 2.0)


def expected_error_gaussian(cfg: BsqConfig) -> float:
    """``int e(z) dPhi(z)`` by 32-node Gauss-Legendre quadrature per cell."""
    x, wq = np.polynomial.legendre.leggauss(32)
    lv = cfg.levels
    a, b = lv[:-1], lv[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    z = mid[:, None] + half[:, None] * x[None, :]
    e = (z - a[:, None]) * (b[:, None] - z)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float(np.sum(half[:, None] * wq[None, :] * e * phi))


@dataclass(frozen=True)
class BsqPayload:
    """Encoded vector: level codes for in-range coordinates (in coordinate
    order) plus exact (index, value) pairs for the escapes."""

    spec: RotationSpec
    config: BsqConfig
    scale: float
    codes: np.ndarray        # uint32, one per in-range coordinate
    outlier_idx: np.ndarray  # uint32, strictly increasing
    outlier_val: np.ndarray  # float64, |value| > threshold

    def __post_init__(self):
        codes = _input_array(self.codes, "codes", 1, integer=True)
        idx = _input_array(self.outlier_idx, "outlier_idx", 1, integer=True)
        val = _input_array(self.outlier_val, "outlier_val", 1, finite=True)
        d = self.spec.dim
        object.__setattr__(self, "scale", check_scale(self.scale))
        if idx.size != val.size:
            raise ValueError("outlier index/value lengths differ")
        if codes.size + idx.size != d:
            raise ValueError("in-range plus outlier counts must equal the dimension")
        # range-checked before the uint32 casts below, which would wrap
        if codes.size and (codes.min() < 0 or codes.max() >= self.config.n_levels):
            raise ValueError("level code out of range")
        if idx.size:
            if idx.min() < 0 or idx.max() >= d:
                raise ValueError("outlier index out of range")
            if idx.size > 1 and not np.all(np.diff(idx.astype(np.int64)) > 0):
                raise ValueError("outlier indices must be strictly increasing")
            if not np.all(np.abs(val) > self.config.threshold):
                raise ValueError("outlier values must exceed the threshold")
        object.__setattr__(self, "codes", np.asarray(codes, dtype=np.uint32))
        object.__setattr__(self, "outlier_idx", np.asarray(idx, dtype=np.uint32))
        object.__setattr__(self, "outlier_val", val)

    def __eq__(self, other):
        """Field by field, the arrays by ``np.array_equal``."""
        if not isinstance(other, BsqPayload):
            return NotImplemented
        return ((self.spec, self.config, self.scale) == (other.spec, other.config, other.scale)
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.outlier_idx, other.outlier_idx)
                and np.array_equal(self.outlier_val, other.outlier_val))

    @property
    def sent_fraction(self) -> float:
        """Fraction of coordinates escaping the grid (sent exactly)."""
        return self.outlier_idx.size / self.spec.dim


def _stochastic_codes(z: np.ndarray, cfg: BsqConfig, u: np.ndarray) -> np.ndarray:
    """Unbiased rounding of in-range values ``z`` to grid level codes."""
    w = cfg.cell_width
    pos = (z + cfg.threshold) / w
    base = np.clip(np.floor(pos), 0, cfg.n_levels - 2)
    frac = pos - base
    return (base + (u < frac)).astype(np.uint32)


# Coordinates per block of ``bsq_encode``'s rounding: a block's noise words
# and rounding temporaries take a few MiB, whatever the dimension.
_ENCODE_BLOCK = TRIAL_CHUNK_ELEMS // 4


def bsq_encode(x, spec: RotationSpec, cfg: BsqConfig, noise_seed: int) -> BsqPayload:
    """Rotate, normalize to ``U = sqrt(d) R xu``, grid-quantize in-range
    coordinates with rounding noise drawn from ``noise_seed``.

    The noise is one uniform per coordinate, in coordinate order, from the
    one stream ``noise_seed``; it and the codes are made ``_ENCODE_BLOCK``
    coordinates at a time, and a stream's words do not depend on how its
    draw is split."""
    noise = Xoshiro256pp([_input_int(noise_seed, "noise_seed", 0, MASK64)])
    u_coords, scale = rotate_normalized(x, spec)
    out_mask = np.abs(u_coords) > cfg.threshold
    codes = np.empty(out_mask.size - np.count_nonzero(out_mask), dtype=np.uint32)
    done = 0
    for lo in range(0, spec.dim, _ENCODE_BLOCK):
        inside = ~out_mask[lo:lo + _ENCODE_BLOCK]
        u_noise = noise.uniforms(inside.size)[0]
        block = _stochastic_codes(u_coords[lo:lo + _ENCODE_BLOCK][inside], cfg, u_noise[inside])
        codes[done:done + block.size] = block
        done += block.size
    return BsqPayload(
        spec=spec,
        config=cfg,
        scale=scale,
        codes=codes,
        outlier_idx=np.nonzero(out_mask)[0].astype(np.uint32),
        outlier_val=u_coords[out_mask],
    )


def bsq_decode(payload: BsqPayload) -> np.ndarray:
    """Rebuild ``U``, rescale, and invert the rotation (needs only the payload)."""
    d = payload.spec.dim
    u_hat = np.empty(d)
    out_mask = np.zeros(d, dtype=bool)
    out_mask[payload.outlier_idx.astype(np.int64)] = True
    u_hat[~out_mask] = payload.config.levels[payload.codes.astype(np.int64)]
    u_hat[out_mask] = payload.outlier_val
    return inverse_rotation(u_hat * payload.scale, payload.spec)


def verify_tv_transfer(x, cfg: BsqConfig, trials: int, layers: int = 2,
                       master_seed: int = 0, threads: int = 1) -> np.ndarray:
    """Per-trial means of ``e(U)`` over ``trials`` independently seeded
    rotations of ``x``, in trial order.  Needs at least two trials and a
    finite, non-zero ``x``; ``layers=0`` turns the rotation off (the
    negative control)."""
    xu, _ = unit_vector(x)
    return map_rotated(xu, layers, trials, master_seed,
                       lambda u: cfg.error_function(u).mean(axis=1), threads)
