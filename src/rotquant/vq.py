"""Gaussian-codebook block vector quantization and its validity checks.

A single codebook is trained once on i.i.d. standard-normal blocks.  Because
a 3-layer rotation makes *any* unit input's normalized coordinates
block-wise near-Gaussian (pairwise correlations conditionally vanish at the
final layer), that one codebook serves every input and every dimension: the
measured distortion gap between rotated data and fresh Gaussian data decays
like sqrt(log d / d).  With only 2 layers an adversarial input keeps a
non-Gaussian block law and the gap stays put.

Two estimators back this, each returning per-trial samples in trial order
that only ``experiments`` reduces to report rows, and each drawing its
rotated rows from :func:`rotquant.core.map_trials`:
``conditional_cov_trials`` samples the final-layer pair covariance from the
rows after ``layers - 2`` layers, ``verify_codebook_universality`` the
distortions on the rotated side of the gap
(:func:`rotquant.core.map_rotated`); ``gaussian_distortions`` draws the
Gaussian side once for any number of such runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_dim, inverse_rotation, layer_signs, map_rotated, map_trials, rotate_normalized, sum_sq, unit_vector
from .core import fwht  # noqa: F401  (the bench tracer patches vq.fwht)
from .rng import Xoshiro256pp, derive_seed, derive_seeds

__all__ = [
    "Codebook",
    "train_gaussian_codebook",
    "vq_encode",
    "vq_decode",
    "stein_diagnostic_constant",
    "conditional_cov_trials",
    "universality_dims",
    "verify_codebook_universality",
]


@dataclass(frozen=True)
class Codebook:
    """Trained centroids for one block size, plus the training seed that
    reproduces them bit for bit; the block size, centroid count and radius
    are read off the centroids, so they cannot disagree with them."""

    centroids: np.ndarray  # (n_centroids, block_dim) float64, read-only
    train_seed: int

    def __post_init__(self):
        c = np.array(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError("centroids must be a non-empty 2-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroids must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)
        if not math.isfinite(self.radius):
            raise ValueError("centroid norms overflow")

    def __eq__(self, other):
        """Field by field, the centroids by ``np.array_equal``."""
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.train_seed == other.train_seed
                and np.array_equal(self.centroids, other.centroids))

    @property
    def block_dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def n_centroids(self) -> int:
        return self.centroids.shape[0]

    @property
    def radius(self) -> float:
        """Largest centroid norm, through ``core.sum_sq`` (the same bits
        under any BLAS)."""
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.max(sum_sq(self.centroids))))


# Rows per block of the nearest-centroid search: a (block, k) distance tile
# stays small enough to be reused from cache instead of streamed from memory.
NEAREST_BLOCK_ROWS = 4096


def _nearest_sq_dist(points: np.ndarray, centroids: np.ndarray, p_sq=None):
    """Squared distance to, and index of, the nearest centroid (ties break
    to the lowest index).

    Uses the expanded form ``|p|^2 - 2 p.c + |c|^2``, clamped at zero, one
    block of ``NEAREST_BLOCK_ROWS`` rows at a time.  The cross term of a
    block is one matmul, scaled by -2 and added in place; negation and
    ``a + (-b)`` are exact, so every output is bit-identical to the
    one-matmul form ``p_sq[:, None] - 2.0 * (points @ centroids.T) + c_sq``.
    ``p_sq`` (the row norms squared) may be passed in when the same points
    are searched repeatedly.

    The cross term is the one BLAS call (``dgemm``) behind a payload byte or
    a report row: its last bits depend on the BLAS kernel (fused
    multiply-add or not), so they can move a distortion and, on a near tie,
    an index.  It stays because a BLAS-free cross term made codebook
    training nearly twice as slow.
    """
    n = points.shape[0]
    if p_sq is None:
        p_sq = np.einsum("ij,ij->i", points, points)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_t = centroids.T
    dist = np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    for lo in range(0, n, NEAREST_BLOCK_ROWS):
        hi = min(lo + NEAREST_BLOCK_ROWS, n)
        d2 = points[lo:hi] @ c_t
        d2 *= -2.0
        d2 += p_sq[lo:hi, None]
        d2 += c_sq
        np.maximum(d2, 0.0, out=d2)
        j = np.argmin(d2, axis=1)
        idx[lo:hi] = j
        dist[lo:hi] = np.take_along_axis(d2, j[:, None], axis=1)[:, 0]
    return dist, idx


def train_gaussian_codebook(block_dim: int, n_centroids: int, train_seed: int,
                            n_samples: int = 1 << 17) -> Codebook:
    """Deterministic Lloyd training on standard-normal blocks.

    Sample row ``j`` comes from its own derived stream (``train_seed`` index
    ``j``) and the initialization stream from index ``n_samples``, so the
    result depends only on the arguments.  Init is distance-squared weighted
    seeding; empty clusters are reseeded from the farthest point; stops after
    50 iterations or once the relative inertia improvement drops below 1e-6.
    """
    if block_dim < 1 or n_centroids < 1:
        raise ValueError("block_dim and n_centroids must be positive")
    if n_samples < 10 * n_centroids:
        raise ValueError("need at least 10 samples per centroid")
    keys = derive_seeds(train_seed, 0, n_samples)
    samples = Xoshiro256pp(keys).gaussians(block_dim)
    picks = Xoshiro256pp([derive_seed(train_seed, n_samples)]).uniforms(n_centroids)[0]

    centroids = np.empty((n_centroids, block_dim))
    centroids[0] = samples[min(int(picks[0] * n_samples), n_samples - 1)]
    diff = samples - centroids[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for m in range(1, n_centroids):
        total = float(d2.sum())
        if total <= 0.0:
            j = m % n_samples
        else:
            cum = np.cumsum(d2)
            j = min(int(np.searchsorted(cum, picks[m] * total, side="right")),
                    n_samples - 1)
        centroids[m] = samples[j]
        diff = samples - centroids[m]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)

    p_sq = np.einsum("ij,ij->i", samples, samples)
    columns = np.ascontiguousarray(samples.T)
    prev_inertia = math.inf
    for _ in range(50):
        min_d2, assign = _nearest_sq_dist(samples, centroids, p_sq)
        counts = np.bincount(assign, minlength=n_centroids)
        for m in np.nonzero(counts == 0)[0]:
            far = int(np.argmax(min_d2))
            assign[far] = m
            min_d2[far] = 0.0
        counts = np.bincount(assign, minlength=n_centroids)
        sums = np.zeros((n_centroids, block_dim))
        for j in range(block_dim):
            sums[:, j] = np.bincount(assign, weights=columns[j],
                                     minlength=n_centroids)
        centroids = sums / counts[:, None]
        inertia = float(min_d2.sum())
        if prev_inertia - inertia < 1e-6 * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    return Codebook(centroids, train_seed)


def vq_encode(x, spec, codebook: Codebook):
    """Rotate, split ``U = sqrt(d) R xu`` into contiguous blocks, send
    nearest-centroid indices plus the scalar scale.  Returns
    ``(indices, scale)``."""
    if spec.dim % codebook.block_dim != 0:
        raise ValueError("dimension must be a multiple of the block size")
    u_coords, scale = rotate_normalized(x, spec)
    blocks = u_coords.reshape(-1, codebook.block_dim)
    _, idx = _nearest_sq_dist(blocks, codebook.centroids)
    return idx.astype(np.uint32), scale


def vq_decode(indices, scale: float, spec, codebook: Codebook) -> np.ndarray:
    """Rebuild blocks from centroid indices and invert the rotation.

    Raises ``ValueError`` unless ``scale`` is finite and non-negative, the
    indices have an integer dtype and each names a centroid of ``codebook``.
    """
    if not math.isfinite(scale) or scale < 0.0:
        raise ValueError("scale must be finite and non-negative")
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise ValueError("centroid indices must be integers")
    d = spec.dim
    if idx.size * codebook.block_dim != d:
        raise ValueError("index count does not match the dimension")
    if idx.size and (idx.min() < 0 or idx.max() >= codebook.n_centroids):
        raise ValueError("centroid index out of range")
    u_hat = codebook.centroids[idx].reshape(-1)
    return inverse_rotation(u_hat * scale, spec)


def stein_diagnostic_constant(k: int) -> float:
    """Smoothness budget for k-dim test functions in the block-law
    comparison: ``4 (11.1 + 0.83 ln k) + 4 sqrt(k) + 1``.  Reported as a
    looseness diagnostic, never as a pass/fail target."""
    if k < 1:
        raise ValueError("block dimension must be positive")
    return 4.0 * (11.1 + 0.83 * math.log(k)) + 4.0 * math.sqrt(k) + 1.0


def conditional_cov_trials(x, i: int, j: int, layers: int, trials: int,
                           master_seed: int = 0, threads: int = 1):
    """Per-trial final-layer conditional covariances.

    The covariance of output pair ``(i, j)`` over the last sign layer equals
    ``sum_m w_m w_{m XOR (i XOR j)}`` where ``w`` is the signed vector
    entering the last Hadamard's preceding stage.  With ``layers=2`` that is
    ``w = D1 xu`` (one random plane); with ``layers=3`` it is ``w = D2 R1 xu``
    (two random planes per trial).  Also returns the per-trial
    ``|a|_inf^2`` of the pre-final vector ``a`` (``xu`` itself for 2 layers,
    ``R1 xu`` for 3), whose mean controls the decay bound.
    Returns ``(covs, linf_sq)`` arrays of length ``trials``; raises
    ``ValueError`` for a zero or non-finite ``x`` or fewer than two trials.
    """
    if layers not in (2, 3):
        raise ValueError("covariance diagnostics apply to 2 or 3 layers")
    if i == j:
        raise ValueError("need two distinct coordinates")
    xu, _ = unit_vector(x)
    d = check_dim(xu.size)
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError("coordinate index out of range")
    perm = np.arange(d) ^ (i ^ j)

    def chunk(a, seeds):  # a: the pre-final rows, rotated by layers - 2 layers
        w = layer_signs(seeds, layers - 1, d) * a
        return np.einsum("ij,ij->i", w, w[:, perm]), np.max(np.abs(a), axis=1) ** 2

    covs, linf_sq = zip(*map_trials(xu[None], layers - 2, trials, master_seed, chunk,
                                    threads=threads))
    return np.concatenate(covs), np.concatenate(linf_sq)


# Fresh Gaussian blocks in the reference pass of ``verify_codebook_universality``.
GAUSS_TRIALS = 100_000


def universality_dims(dims, block_dim: int, pattern_size: int) -> tuple:
    """``dims`` as a tuple, once each is checked: a power of two, a multiple
    of ``block_dim``, and no shorter than the input pattern.  A runner calls
    it before its codebook is trained."""
    dims = tuple(dims)
    if not dims:
        raise ValueError("need at least one dimension")
    for d in dims:
        check_dim(d)
        if d % block_dim != 0:
            raise ValueError("dimension must be a multiple of the block size")
        if pattern_size > d:
            raise ValueError("input pattern longer than the target dimension")
    return dims


def verify_codebook_universality(x, codebook: Codebook, dims, trials: int,
                                 master_seed: int = 0, layers: int = 3,
                                 threads: int = 1) -> list:
    """Distortion samples for one shared codebook across dimensions.

    The input's pattern is re-embedded (zero-padded, renormalized) at each
    dimension.  Returns, per dim, the per-trial distortion
    ``min_c |U_block - c|^2`` of the FIRST block of the rotated output, the
    only block the last layer computes (``map_rotated``'s ``head``); the
    reference side of the gap is :func:`gaussian_distortions`.  Every dim
    is checked before any trial.
    """
    pattern, _ = unit_vector(x)
    k = codebook.block_dim
    dims = universality_dims(dims, k, pattern.size)

    def first_block(u):  # C-contiguous (trials, k): a dgemm's bits may depend on the strides
        return _nearest_sq_dist(u, codebook.centroids)[0]

    rht = []
    for d in dims:
        xu = np.zeros(d)
        xu[: pattern.size] = pattern
        rht.append(map_rotated(xu, layers, trials, master_seed, first_block, threads,
                               head=k))
    return rht


def gaussian_distortions(codebook: Codebook, trials: int, master_seed: int = 0):
    """The codebook's distortions on ``GAUSS_TRIALS`` fresh standard-normal
    blocks, the reference side of :func:`verify_codebook_universality`'s gap;
    the seeds start at index ``trials``, after that run's rotation seeds."""
    gkeys = derive_seeds(master_seed, trials, GAUSS_TRIALS)
    gauss_blocks = Xoshiro256pp(gkeys).gaussians(codebook.block_dim)
    return _nearest_sq_dist(gauss_blocks, codebook.centroids)[0]
