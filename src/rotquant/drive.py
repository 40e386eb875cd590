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

The Monte Carlo estimators share one chunk function, fed the rotated
clients by :func:`rotquant.core.map_trials`: :func:`dme_simulate` averages
the decodes of ``N`` clients per trial and returns the per-trial errors, and
:func:`measure_drive_error` is its one-client case, with the same seeds.  It
alone reduces (to a :class:`DriveErrorReport`): its bias and variance need the
trial-mean reconstruction, which never leaves this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TRIAL_BLOCK, RotationSpec, _input_array, _rotate_rows, apply_rotation, check_scale, fwht_sign_bits, layer_signs, map_trials, mean_se, padding_is_zero, sign_vector, sum_sq, unpack_sign_bits
from .core import rotate_many  # noqa: F401  (the bench tracer patches drive.rotate_many)
from .rng import _input_int

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
    d = _input_int(d, "d", 1)
    if d > _CD_SERIES_CUTOFF:
        return _ROOT_2_OVER_PI * math.exp(_cd_series_exponent(d))
    return math.exp(0.5 * math.log(d / math.pi) + math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0))


# Not folded into scaling_constant_cd: the two differ in the last bits at some
# dimensions, and one sets unbiased wire scales while this one feeds run_cd_expansion.
def cd_values(dims: np.ndarray) -> np.ndarray:
    """Vectorized ``scaling_constant_cd`` over an integer array."""
    d = _input_array(dims, "dims")
    if d.size and d.min() < 1:
        raise ValueError("dimensions must be positive")
    small = d <= _CD_SERIES_CUTOFF
    out = _ROOT_2_OVER_PI * np.exp(_cd_series_exponent(np.maximum(d, 2.0)))
    if small.any():
        from scipy.special import gammaln

        ds = d[small]
        out[small] = np.exp(0.5 * np.log(ds / math.pi)
                            + gammaln(ds / 2.0) - gammaln((ds + 1.0) / 2.0))
    return out


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class DrivePayload:
    """Wire content of one encoded vector: mode, rotation spec, scale, signs."""

    mode: str
    spec: RotationSpec
    scale: float
    sign_bits: bytes

    def __post_init__(self):
        _check_mode(self.mode)
        object.__setattr__(self, "scale", check_scale(self.scale))
        if len(self.sign_bits) != (self.spec.dim + 7) // 8:
            raise ValueError("sign payload length does not match dimension")
        if not padding_is_zero(self.sign_bits, self.spec.dim):
            raise ValueError("sign payload has nonzero padding bits")


def _unbiased_scale(norm, d: int):
    """The unbiased scale ``|x|_2 / (c_d sqrt(d))`` from the l2 norm; the
    biased one is the rotated l1 norm over ``d``, ``|Rx|_1 / d``."""
    return norm / (scaling_constant_cd(d) * math.sqrt(d))


def drive_encode(x, spec: RotationSpec, mode: str = "biased") -> DrivePayload:
    """Rotate ``x`` and quantize to signs plus a single scale."""
    _check_mode(mode)
    y = apply_rotation(x, spec)
    if mode == "biased":
        scale = float(np.sum(np.abs(y)) / spec.dim)
    else:
        with np.errstate(over="ignore"):  # an infinite norm fails the payload's scale check
            scale = _unbiased_scale(math.sqrt(sum_sq(x)), spec.dim)
    return DrivePayload(mode=mode, spec=spec, scale=scale, sign_bits=sign_vector(y))


def _unrotate_signs(packed, layers: int, seeds, out) -> None:
    """``R^{-1}`` of the +/-1 rows packed in the uint8 rows ``packed`` (as
    :func:`rotquant.core.sign_vector` packs them), row ``i`` under
    ``seeds[i]``, into the C-contiguous float64 rows ``out``: the first
    inverse layer's ``Hn`` is the exact integer kernel
    :func:`rotquant.core.fwht_sign_bits`, the others are float."""
    d = out.shape[1]
    if layers == 0:
        out[...] = unpack_sign_bits(packed, d)
        return
    fwht_sign_bits(packed, d, out=out)
    out *= layer_signs(seeds, layers, d)
    _rotate_rows(out, layers - 1, seeds, inverse=True)


def drive_decode(payload: DrivePayload) -> np.ndarray:
    """Reconstruct ``xhat = scale * R^{-1} sign(Rx)`` from a payload alone."""
    spec = payload.spec
    xhat = np.empty((1, spec.dim))
    _unrotate_signs(np.frombuffer(payload.sign_bits, dtype=np.uint8)[None],
                    spec.layers, [spec.seed], xhat)
    xhat *= payload.scale
    return xhat[0]


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


def _simulate(xs, spec_template: RotationSpec, mode: str, trials: int,
              threads: int = 1):
    """Encode and decode every row (client) of ``xs`` in each of ``trials``
    trials, seeded as in :func:`dme_simulate`; each chunk of clients comes
    rotated from :func:`rotquant.core.map_trials`, and is signed, rotated
    back (:func:`_unrotate_signs`) and scaled.

    ``xs`` is the ``(N, d)`` float64 client matrix, already through the
    callers' input gate.  Returns per trial the squared error of the
    decoded client mean over the mean client energy; per encoded row the
    scale, and in the biased mode the rotated l1 norm (``None`` in the
    unbiased mode, which never computes it); the trial mean of the decoded
    client means, summed per ``TRIAL_BLOCK`` trials in trial order; and the
    squared client norms.
    """
    _check_mode(mode)
    with np.errstate(over="ignore"):
        sq = sum_sq(xs)
    if not np.all((sq > 0.0) & (sq < math.inf)):  # NaN fails both
        raise ValueError("input must be finite and non-zero")
    n, d = xs.shape
    layers = spec_template.layers
    x_avg, denom, mean_acc = xs.mean(axis=0), float(np.mean(sq)), np.zeros(d)

    def chunk(y, seeds):
        n_t = len(seeds) // n
        if mode == "biased":
            l1 = np.sum(np.abs(y), axis=1)
            scales = l1 / d
        else:
            l1, scales = None, _unbiased_scale(np.tile(np.sqrt(sq), n_t), d)
        _unrotate_signs(np.packbits(y < 0, axis=1, bitorder="little"), layers, seeds, y)
        y *= scales[:, None]
        avg = y if n == 1 else y.reshape(n_t, n, d).mean(axis=1)
        blocks = avg[::TRIAL_BLOCK].copy()
        for j in range(1, TRIAL_BLOCK):
            blocks[:len(avg[j::TRIAL_BLOCK])] += avg[j::TRIAL_BLOCK]
        avg -= x_avg
        return np.einsum("ij,ij->i", avg, avg) / denom, scales, l1, blocks

    parts = []
    for err, scales, l1, blocks in map_trials(xs, layers, trials, spec_template.seed,
                                              chunk, threads=threads):
        for block in blocks:  # chunks arrive in trial order
            np.add(mean_acc, block, out=mean_acc)
        parts.append((err, scales, l1))
    err, scales, l1 = zip(*parts)
    l1 = np.concatenate(l1) if mode == "biased" else None
    return np.concatenate(err), np.concatenate(scales), l1, mean_acc / trials, sq


def measure_drive_error(x, spec_template: RotationSpec, mode: str, trials: int,
                        threads: int = 1) -> DriveErrorReport:
    """Encode/decode ``x`` under ``trials`` independent rotation seeds, as
    the one-client case of :func:`dme_simulate`.

    Trial ``i`` uses seed ``mix64(spec_template.seed + i)``.  All statistics
    are reduced in trial order, so reruns, any ``threads`` and any chunk
    size agree bitwise.
    """
    x = _input_array(x, "x", 1, dim=spec_template.dim)
    vnmse_samples, scales, l1, mean_hat, sq = _simulate(x[None], spec_template, mode,
                                                        trials, threads)
    d, norm_sq = spec_template.dim, float(sq[0])
    vnmse, std_err = mean_se(vnmse_samples)
    bias_sq_norm = float(sum_sq(mean_hat - x) / norm_sq)
    # E|xhat|^2 = scale^2 d exactly, so the plug-in variance needs no second pass.
    variance_norm = float((np.mean(scales * scales) * d - sum_sq(mean_hat)) / norm_sq)
    eq1 = None
    if mode == "biased":
        eq1 = float(1.0 - np.mean(l1 * l1) / (d * norm_sq))
    return DriveErrorReport(mode=mode, trials=trials, vnmse=vnmse, std_err=std_err,
                            bias_sq_norm=bias_sq_norm, variance_norm=variance_norm,
                            eq1_vnmse=eq1)


def dme_simulate(client_vectors, spec_template: RotationSpec, mode: str, trials: int,
                 threads: int = 1) -> np.ndarray:
    """Each client encodes with its own seed; the server averages decodes.

    Returns ``|mean xhat_c - mean x_c|^2`` over the mean client energy per
    trial, in trial order.  Client ``c`` of trial ``t`` uses seed
    ``mix64(master + t * N + c)`` where ``master = spec_template.seed``, so
    ``N = 1`` reproduces the seeds and errors of :func:`measure_drive_error`.
    """
    xs = _input_array(client_vectors, "client_vectors", 2, dim=spec_template.dim,
                      nonempty=True)
    return _simulate(xs, spec_template, mode, trials, threads)[0]
