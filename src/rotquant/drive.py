"""One-bit sign quantization after a randomized Hadamard rotation.

The encoder rotates, keeps only coordinate signs, and sends one scale:

* ``biased`` scale ``|Rx|_1 / d`` minimizes the per-vector squared error and
  satisfies the identity ``vNMSE = 1 - |R xu|_1^2 / d`` per realized rotation
  (``xu`` the unit input), hence ``E vNMSE <= 1 - 2/pi + O(1/sqrt(d))``.
* ``unbiased`` scale ``|x|_2 / (c_d sqrt(d))`` with the exact half-integer
  Gamma ratio ``c_d = sqrt(d/pi) * Gamma(d/2) / Gamma((d+1)/2)``; the
  estimator mean approaches ``x`` with squared bias ``O(d^{-1/2})`` and
  variance ``(pi/2 - 1 + O(d^{-1/2})) |x|_2^2``.

Decoding needs only the payload: the rotation is regenerated from the seed.
The reconstruction always satisfies ``|xhat|_2 = scale * sqrt(d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import RotationSpec, apply_rotation, inverse_rotation, map_trials, rotate_many, sign_vector, unpack_sign_bits

__all__ = [
    "MODES",
    "LIMIT_VNMSE",
    "scaling_constant_cd",
    "cd_values",
    "DrivePayload",
    "drive_encode",
    "drive_decode",
    "DriveErrorReport",
    "measure_drive_error",
    "DmeReport",
    "dme_simulate",
]

MODES = ("biased", "unbiased")

# Large-d vNMSE of one encode/decode round per mode: 1 - 2/pi for the biased
# scale, pi/2 - 1 for the unbiased one (the variance term above).
LIMIT_VNMSE = {"biased": 1.0 - 2.0 / math.pi, "unbiased": math.pi / 2.0 - 1.0}


# Above this dimension the log-Gamma difference loses precision (two huge
# logs cancel), so a Stirling series in 1/d takes over; at the crossover its
# truncation error is already ~1e-22 relative.
_CD_SERIES_CUTOFF = 256
_ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _cd_series_exponent(d):
    """``log(c_d / sqrt(2/pi))`` for large ``d``, exact to ``O(d^-9)``."""
    inv2 = 1.0 / (d * d)
    return (1.0 / (4.0 * d)) * (1.0 - inv2 * (1.0 / 6.0 - inv2 * (1.0 / 5.0 - inv2 * (17.0 / 28.0))))


def scaling_constant_cd(d: int) -> float:
    """``c_d = sqrt(d/pi) * Gamma(d/2) / Gamma((d+1)/2)``.

    ``c_1 = 1``, ``c_2 = 2 sqrt(2)/pi``, and ``c_d`` increases towards
    ``sqrt(2/pi) * (1 + 1/(4d) + O(1/d^2))``.  Small dimensions go through
    log-Gamma; large ones through the series, keeping relative error at the
    few-ulp level across the whole range.
    """
    d = int(d)
    if d < 1:
        raise ValueError("dimension must be positive")
    if d > _CD_SERIES_CUTOFF:
        return _ROOT_2_OVER_PI * math.exp(_cd_series_exponent(float(d)))
    return math.exp(0.5 * math.log(d / math.pi) + math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0))


# Not folded into scaling_constant_cd: the two differ in the last bits at some
# dimensions, and one sets unbiased wire scales while this one feeds run_cd_expansion.
def cd_values(dims: np.ndarray) -> np.ndarray:
    """Vectorized ``scaling_constant_cd`` over an integer array."""
    d = np.asarray(dims, dtype=np.float64)
    if d.size and d.min() < 1:
        raise ValueError("dimensions must be positive")
    small = d <= _CD_SERIES_CUTOFF
    out = _ROOT_2_OVER_PI * np.exp(_cd_series_exponent(np.maximum(d, 2.0)))
    if small.any():
        ds = d[small]
        out[small] = np.exp(0.5 * np.log(ds / math.pi)
                            + gammaln(ds / 2.0) - gammaln((ds + 1.0) / 2.0))
    return out


@dataclass(frozen=True)
class DrivePayload:
    """Wire content of one encoded vector: mode, rotation spec, scale, signs."""

    mode: str
    spec: RotationSpec
    scale: float
    sign_bits: bytes

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not math.isfinite(self.scale) or self.scale < 0.0:
            raise ValueError("scale must be finite and non-negative")
        if len(self.sign_bits) != (self.spec.dim + 7) // 8:
            raise ValueError("sign payload length does not match dimension")


def _drive_scale(mode: str, d: int, l1, norm):
    """Scale per vector from its rotated l1 norm (``biased``: ``|Rx|_1 / d``)
    or its l2 norm (``unbiased``: ``|x|_2 / (c_d sqrt(d))``)."""
    if mode == "biased":
        return l1 / d
    return norm / (scaling_constant_cd(d) * math.sqrt(d))


def drive_encode(x, spec: RotationSpec, mode: str = "biased") -> DrivePayload:
    """Rotate ``x`` and quantize to signs plus a single scale."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    y = apply_rotation(x, spec)
    scale = float(_drive_scale(mode, spec.dim, np.sum(np.abs(y)),
                               np.linalg.norm(x)))
    return DrivePayload(mode=mode, spec=spec, scale=scale, sign_bits=sign_vector(y))


def drive_decode(payload: DrivePayload) -> np.ndarray:
    """Reconstruct ``xhat = scale * R^{-1} sign(Rx)`` from a payload alone."""
    signs = unpack_sign_bits(payload.sign_bits, payload.spec.dim)
    return payload.scale * inverse_rotation(signs, payload.spec)


@dataclass(frozen=True)
class DriveErrorReport:
    """Monte Carlo error summary for one input vector.

    ``vnmse`` is the mean of ``|x - xhat|^2 / |x|^2`` over independently
    seeded rotations; ``bias_sq_norm + variance_norm`` decomposes the same
    quantity around the empirical mean reconstruction.  For the biased mode
    ``eq1_vnmse`` re-derives the error from rotated l1 norms only, an
    algebraically independent route that must agree with ``vnmse``.
    """

    mode: str
    trials: int
    vnmse: float
    std_err: float
    bias_sq_norm: float
    variance_norm: float
    eq1_vnmse: float | None = None


def _encode_decode_rows(rows: np.ndarray, seeds: np.ndarray, spec: RotationSpec,
                        mode: str, norms: np.ndarray):
    """Batched encode+decode. Returns (xhat rows, scales, rotated l1 norms)."""
    y = rotate_many(rows, spec.layers, seeds)
    l1 = np.sum(np.abs(y), axis=1)
    scales = _drive_scale(mode, spec.dim, l1, norms)
    signs = np.where(y < 0, -1.0, 1.0)
    xhat = scales[:, None] * rotate_many(signs, spec.layers, seeds, inverse=True)
    return xhat, scales, l1


def measure_drive_error(x, spec_template: RotationSpec, mode: str, trials: int) -> DriveErrorReport:
    """Encode/decode ``x`` under ``trials`` independent rotation seeds.

    Trial ``i`` uses seed ``mix64(spec_template.seed + i)``.  All statistics
    are reduced in trial order, so reruns and threaded callers agree bitwise.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if trials < 2:
        raise ValueError("need at least two trials")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec_template.dim,):
        raise ValueError("vector length does not match the rotation spec")
    norm_sq = float(np.dot(x, x))
    if norm_sq == 0.0 or not math.isfinite(norm_sq):
        raise ValueError("input must be finite and non-zero")

    d = spec_template.dim
    norm = math.sqrt(norm_sq)

    def chunk(lo, hi, seeds):
        xhat, scales, l1 = _encode_decode_rows(
            np.broadcast_to(x, (hi - lo, d)), seeds, spec_template, mode,
            np.full(hi - lo, norm))
        diff = xhat - x
        return (np.einsum("ij,ij->i", diff, diff) / norm_sq, scales * scales,
                l1 * l1, xhat.sum(axis=0))

    per_trial = []
    mean_acc = np.zeros(d)
    for *rows, xsum in map_trials(spec_template.seed, trials, d, chunk):
        per_trial.append(rows)
        mean_acc += xsum
    vnmse_samples, scale_sq, l1_sq = (np.concatenate(p) for p in zip(*per_trial))

    vnmse = float(np.mean(vnmse_samples))
    std_err = float(np.std(vnmse_samples, ddof=1) / math.sqrt(trials))
    mean_hat = mean_acc / trials
    bias_sq_norm = float(np.sum((mean_hat - x) ** 2) / norm_sq)
    # E|xhat|^2 = scale^2 d exactly, so the plug-in variance needs no second pass.
    variance_norm = float((np.mean(scale_sq) * d - np.dot(mean_hat, mean_hat)) / norm_sq)
    eq1 = None
    if mode == "biased":
        eq1 = float(1.0 - np.mean(l1_sq) / (d * norm_sq))
    return DriveErrorReport(mode=mode, trials=trials, vnmse=vnmse, std_err=std_err,
                            bias_sq_norm=bias_sq_norm, variance_norm=variance_norm,
                            eq1_vnmse=eq1)


@dataclass(frozen=True)
class DmeReport:
    """Distributed mean estimation summary: ``|mean xhat_c - mean x_c|^2``
    over the mean client energy, averaged over trials."""

    n_clients: int
    trials: int
    nmse: float
    std_err: float
    per_trial: np.ndarray


def dme_simulate(client_vectors, spec_template: RotationSpec, mode: str, trials: int) -> DmeReport:
    """Each client encodes with its own seed; the server averages decodes.

    Client ``c`` of trial ``t`` uses seed ``mix64(master + t * N + c)`` where
    ``master = spec_template.seed``, so ``N = 1`` reproduces the exact seed
    stream of :func:`measure_drive_error`.
    """
    xs = np.asarray(client_vectors, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("client vectors must form a non-empty (N, d) matrix")
    n_clients, d = xs.shape
    if d != spec_template.dim:
        raise ValueError("client vector length does not match the rotation spec")
    if not np.all(np.isfinite(xs)):
        raise ValueError("client vectors must be finite")
    if trials < 2:
        raise ValueError("need at least two trials")
    norms = np.linalg.norm(xs, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("client vectors must be non-zero")

    x_avg = xs.mean(axis=0)
    denom = float(np.mean(norms**2))

    def chunk(lo, hi, seeds):
        n_t = hi - lo
        xhat, _, _ = _encode_decode_rows(np.tile(xs, (n_t, 1)), seeds,
                                         spec_template, mode, np.tile(norms, n_t))
        diff = xhat.reshape(n_t, n_clients, d).mean(axis=1) - x_avg
        return np.einsum("ij,ij->i", diff, diff) / denom

    per_trial = np.concatenate(map_trials(
        spec_template.seed, trials, n_clients * d, chunk,
        seeds_per_trial=n_clients))
    nmse = float(np.mean(per_trial))
    std_err = float(np.std(per_trial, ddof=1) / math.sqrt(trials))
    return DmeReport(n_clients=n_clients, trials=trials, nmse=nmse,
                     std_err=std_err, per_trial=per_trial)
