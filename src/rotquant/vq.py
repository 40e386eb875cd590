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

from .core import TRIAL_CHUNK_ELEMS, _input_array, check_dim, check_scale, inverse_rotation, layer_signs, map_rotated, map_trials, rotate_normalized, sum_sq, unit_vector
from .core import fwht  # noqa: F401  (the bench tracer patches vq.fwht)
from .rng import _GAUSSIAN_BLOCK_STREAMS, MASK64, Xoshiro256pp, _input_int, derive_seed, derive_seeds

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
    are read off the centroids, so they cannot disagree with them.  Refused
    at construction: centroids other than a non-empty, finite 2-d real array
    with finite norms, and a ``train_seed`` outside the integers ``0 .. 2**64 - 1``."""

    centroids: np.ndarray  # (n_centroids, block_dim) float64, read-only
    train_seed: int

    def __post_init__(self):
        object.__setattr__(self, "train_seed", _input_int(self.train_seed, "train_seed", 0, MASK64))
        # a copy, so freezing it leaves the caller's array writeable
        c = _input_array(self.centroids, "centroids", 2, nonempty=True, finite=True).copy()
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


# Rows per tile of the nearest-centroid search: an (n_centroids, rows) tile
# and its scratch stay in cache, and every numpy op runs along the rows.
NEAREST_BLOCK_ROWS = 4096


def _nearest_sq_dist(points: np.ndarray, centroids: np.ndarray, p_sq=None, rows=None,
                     runner_up=False):
    """Squared distance to, and index of, the nearest centroid (ties break
    to the lowest index) of each row of ``points``, or of the rows
    ``points[rows]``; with ``runner_up`` also each row's second-smallest
    squared distance (``inf`` for one centroid).  ``p_sq`` (the ``einsum``
    row norms squared of all of ``points``) may be passed in when the same
    points are searched repeatedly, and must be when ``points`` is
    column-major (training passes the transpose of its ``(k, n)`` samples).

    Uses the expanded form ``|p|^2 - 2 p.c + |c|^2``, clamped at zero,
    without BLAS.  Each tile holds every centroid against
    ``NEAREST_BLOCK_ROWS`` rows: ``s = (-2 c_0) p_0``, then
    ``s += (-2 c_j) p_j`` for ``j`` ascending, then ``+ p_sq``, then
    ``+ |c|^2``, then the clamp.  Scaling by -2 is exact and every op is
    elementwise, so a row's distances depend only on its coordinates and
    its ``p_sq``, not on the BLAS build or the tile it falls in (the
    ``einsum`` norms give the same bits at any row stride, but not for a
    column-major ``points``).  The minimum is taken down each column, and
    the index is the lowest centroid that reaches it: ``n_c`` less the
    largest rank ``n_c - m`` among the centroids ``m`` that equal the
    minimum.
    """
    if p_sq is None:
        p_sq = np.einsum("ij,ij->i", points, points)
    n = points.shape[0] if rows is None else rows.size
    n_c = centroids.shape[0]
    m2c = -2.0 * centroids
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[:, None]
    dist = np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    second = np.empty(n) if runner_up else None
    width = min(n, NEAREST_BLOCK_ROWS)
    tile, prod = np.empty((n_c, width)), np.empty((n_c, width))
    rank = np.arange(n_c, 0, -1, dtype=np.min_scalar_type(n_c))[:, None]  # n_c - m
    hits = np.empty((n_c, width), dtype=rank.dtype)
    for lo in range(0, n, NEAREST_BLOCK_ROWS):
        hi = min(lo + NEAREST_BLOCK_ROWS, n)
        sel = slice(lo, hi) if rows is None else rows[lo:hi]
        p = np.ascontiguousarray(points.T[:, sel])
        s, t = tile[:, : hi - lo], prod[:, : hi - lo]
        np.multiply(m2c[:, :1], p[0], out=s)
        for j in range(1, p.shape[0]):
            np.multiply(m2c[:, j:j + 1], p[j], out=t)
            s += t
        s += p_sq[sel]
        s += c_sq
        np.maximum(s, 0.0, out=s)
        best, ix = dist[lo:hi], idx[lo:hi]
        np.minimum.reduce(s, axis=0, out=best)
        top = np.maximum.reduce(np.multiply(s == best, rank, out=hits[:, : hi - lo]), axis=0)
        np.remainder(n_c - top, n_c, out=ix)  # a row of NaNs matches none: index 0
        if runner_up:
            s[ix, np.arange(hi - lo)] = np.inf
            np.minimum.reduce(s, axis=0, out=second[lo:hi])
    return (dist, idx, second) if runner_up else (dist, idx)


def _assigned_sq_dist(cols, m2c, c_sq, p_sq, assign, out):
    """Each point's squared distance to its assigned centroid, into
    ``out``, by the same float ops in the same order as that centroid's row
    of a :func:`_nearest_sq_dist` tile (``m2c = -2 centroids``, ``c_sq``
    their ``einsum`` norms), so the bits are the ones a full search gives;
    ``cols`` holds the points' coordinates as rows."""
    m2c[:, 0].take(assign, out=out)
    out *= cols[0]
    term = np.empty_like(out)
    for j in range(1, cols.shape[0]):
        m2c[:, j].take(assign, out=term)
        term *= cols[j]
        out += term
    out += p_sq
    c_sq.take(assign, out=term)
    out += term
    return np.maximum(out, 0.0, out=out)


# Points per block of the seeding and Lloyd passes over the training
# samples.  A block's working arrays (distances, bounds, filter and search
# results, a dozen block-sized arrays at most) stay a few MiB whatever the
# sample count, and its numpy calls are long enough that their fixed cost
# stays small: 2^15 trained about 5% faster than 2^14, and 2^16 breaks the
# memory contract.
_TRAIN_BLOCK_ROWS = TRIAL_CHUNK_ELEMS // 8


def _lloyd(cols: np.ndarray, p_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Lloyd iterations from ``centroids`` on the points whose coordinates
    are the rows of ``cols`` (shape ``(k, n)``) and whose ``einsum`` norms
    squared are ``p_sq``: at most 50, stopping once the relative inertia
    improvement drops below 1e-6; an empty cluster is reseeded from the
    point farthest from its centroid.

    Bit for bit the plain algorithm that searches every point in every
    iteration, but with Hamerly's bounds ("Making k-means even faster",
    SDM 2010) only the points whose nearest centroid may have changed are
    searched.  Each iteration recomputes every point's squared distance
    ``s_a`` to its assigned centroid (:func:`_assigned_sq_dist`), so the
    inertia, the stopping test and the reseed see the values a full search
    gives; ``u = sqrt(s_a)`` is the upper bound.  The lower bound ``l`` on
    the distance to every other centroid is the root of the runner-up of
    the point's last search, lowered after each update by the largest move
    among the other centroids; a reseeded point gets ``l = -inf``.  A point
    is searched when ``u + delta >= max(l, h)``, ``h`` being half the
    distance from its centroid to the nearest other one.

    The margin ``delta``: with ``k`` the block width and
    ``g = (k+2) 2^-53 / (1 - (k+2) 2^-53)``, a squared distance from the
    expanded form is within ``E = g (|p| + max|c|)^2`` of the true ``D^2``
    (``k`` products and ``k + 1`` additions on terms summing to at most
    ``|p|^2 + 2|p||c| + |c|^2``, the ``einsum`` norms included), and the
    clamp only moves it toward ``D^2``.  So the true distance to the
    assigned centroid is at most ``u + sqrt(E)``, and the runner-up's root
    less ``sqrt(E)`` is at most the true distance to any other centroid.
    If that lower bound ``l`` exceeds ``u + sqrt(E)`` (or ``h`` does, by the
    triangle inequality), every other centroid ``c`` has
    ``s_c >= D_c^2 - E > u^2 + 2 u sqrt(E) >= s_a``, and a full search keeps
    the assignment.  ``delta = 2 sqrt(E)`` with ``max|c|`` of the current
    centroids, and a search lowers the runner-up's root by its ``delta``:
    the factor 2 covers the rounding of the roots, moves and bounds, each
    ``O(2^-53 (|p| + max|c|))`` against ``sqrt(E) > 1e-8 (|p| + max|c|)``.

    The distances, the filter and the search run ``_TRAIN_BLOCK_ROWS``
    points at a time, each point on its own, and each block first applies
    the last update's decrease to its lower bounds; the counts, the reseed,
    the centroid sums and the inertia run over all points in point order.
    """
    n_c, k = centroids.shape
    n = cols.shape[1]
    points = cols.T
    rounding = (k + 2) * 2.0 ** -53
    slack = 2.0 * math.sqrt(rounding / (1.0 - rounding))
    p_slack = np.sqrt(p_sq)
    p_slack *= slack
    assign = np.zeros(n, dtype=np.intp)
    lower = np.full(n, -np.inf)
    min_d2 = np.empty(n)
    drop = np.zeros(n_c)  # the last update's bound decrease, by assigned centroid
    prev_inertia = math.inf
    for _ in range(50):
        c_slack = slack * math.sqrt(np.max(sum_sq(centroids)))
        gaps = np.sqrt(sum_sq(centroids[:, None, :] - centroids[None, :, :]))
        np.fill_diagonal(gaps, np.inf)
        half = 0.5 * np.min(gaps, axis=1)
        m2c = -2.0 * centroids
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        for lo in range(0, n, _TRAIN_BLOCK_ROWS):
            blk = slice(lo, lo + _TRAIN_BLOCK_ROWS)
            a, d2, low = assign[blk], min_d2[blk], lower[blk]
            low -= drop.take(a)
            _assigned_sq_dist(cols[:, blk], m2c, c_sq, p_sq[blk], a, d2)
            delta = p_slack[blk] + c_slack
            upper = np.sqrt(d2)
            upper += delta
            rows = np.flatnonzero(upper >= np.maximum(low, half.take(a)))
            found, nearest, runner_up = _nearest_sq_dist(points[blk], centroids, p_sq[blk],
                                                         rows, runner_up=True)
            d2[rows] = found
            a[rows] = nearest
            np.sqrt(runner_up, out=runner_up)
            runner_up -= delta[rows]
            low[rows] = runner_up
        counts = np.bincount(assign, minlength=n_c)
        empty = np.flatnonzero(counts == 0)
        for m in empty:
            far = int(np.argmax(min_d2))
            assign[far] = m
            min_d2[far] = 0.0
            lower[far] = -np.inf
        if empty.size:
            counts = np.bincount(assign, minlength=n_c)
        sums = np.zeros((n_c, k))
        for j in range(k):
            sums[:, j] = np.bincount(assign, weights=cols[j], minlength=n_c)
        updated = sums / counts[:, None]
        moved = np.sqrt(sum_sq(updated - centroids))
        centroids = updated
        top = int(np.argmax(moved))
        drop = np.full(n_c, moved[top])
        drop[top] = np.delete(moved, top).max(initial=0.0)
        inertia = float(min_d2.sum())
        if prev_inertia - inertia < 1e-6 * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    return centroids


def _gaussian_blocks(master_seed: int, start: int, count: int, block_dim: int):
    """The rows of ``Xoshiro256pp(derive_seeds(master_seed, start,
    count)).gaussians(block_dim)`` as ``(offset, rows)`` blocks in order,
    one generator per ``_GAUSSIAN_BLOCK_STREAMS`` seeds, so neither the keys
    nor the states of all ``count`` streams are ever held at once."""
    for lo in range(0, count, _GAUSSIAN_BLOCK_STREAMS):
        keys = derive_seeds(master_seed, start + lo, min(_GAUSSIAN_BLOCK_STREAMS, count - lo))
        yield lo, Xoshiro256pp(keys).gaussians(block_dim)


def train_gaussian_codebook(block_dim: int, n_centroids: int, train_seed: int,
                            n_samples: int = 1 << 17) -> Codebook:
    """Deterministic Lloyd training on standard-normal blocks.

    Sample row ``j`` comes from its own derived stream (``train_seed`` index
    ``j``) and the initialization stream from index ``n_samples``, so the
    result depends only on the arguments.  Init is distance-squared weighted
    seeding (:func:`_seed_centroids`), followed by :func:`_lloyd`.  The
    samples are drawn block by block (:func:`_gaussian_blocks`) straight
    into one ``(block_dim, n_samples)`` buffer, one coordinate per row, and
    each block's ``einsum`` norms are taken while it is still row-major.
    """
    block_dim = _input_int(block_dim, "block_dim", 1)
    n_centroids = _input_int(n_centroids, "n_centroids", 1)
    n_samples = _input_int(n_samples, "n_samples", 10 * n_centroids)
    cols = np.empty((block_dim, n_samples))
    p_sq = np.empty(n_samples)
    for lo, rows in _gaussian_blocks(train_seed, 0, n_samples, block_dim):
        cols[:, lo:lo + len(rows)] = rows.T
        p_sq[lo:lo + len(rows)] = np.einsum("ij,ij->i", rows, rows)
    picks = Xoshiro256pp([derive_seed(train_seed, n_samples)]).uniforms(n_centroids)[0]
    return Codebook(_lloyd(cols, p_sq, _seed_centroids(cols, picks)), train_seed)


def _seed_centroids(cols: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """One centroid per uniform in ``picks`` for the points whose
    coordinates are the rows of ``cols``: the first at point
    ``picks[0] * n``, each next one drawn with weight the squared distance
    to the nearest centroid so far (point ``m mod n`` when every weight is
    zero).  The distances are ``einsum`` norms of row-major copies of
    ``_TRAIN_BLOCK_ROWS`` points at a time."""
    k, n = cols.shape
    centroids = np.empty((picks.size, k))
    d2 = np.full(n, np.inf)  # the first centroid's pass writes its distances
    diff = np.empty((min(n, _TRAIN_BLOCK_ROWS), k))
    j = min(int(picks[0] * n), n - 1)
    for m in range(picks.size):
        if m:
            total = float(d2.sum())
            if total <= 0.0:
                j = m % n
            else:
                j = min(int(np.searchsorted(np.cumsum(d2), picks[m] * total, side="right")),
                        n - 1)
        centroids[m] = cols[:, j]
        for lo in range(0, n, _TRAIN_BLOCK_ROWS):
            block = cols[:, lo:lo + _TRAIN_BLOCK_ROWS].T
            rows = np.subtract(block, centroids[m], out=diff[:len(block)])
            near = d2[lo:lo + len(block)]
            np.minimum(near, np.einsum("ij,ij->i", rows, rows), out=near)
    return centroids


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
    indices are a 1-d integer array and each names a centroid of ``codebook``.
    """
    scale = check_scale(scale)
    idx = _input_array(indices, "indices", 1, integer=True)
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
    k = _input_int(k, "k", 1)
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
    layers = _input_int(layers, "layers", 2, 3)
    xu, _ = unit_vector(x)
    d = check_dim(xu.size)
    i, j = _input_int(i, "i", 0, d - 1), _input_int(j, "j", 0, d - 1)
    if i == j:
        raise ValueError("need two distinct coordinates")
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

    def first_block(u):  # (trials, k) rows: each row's distance depends on that row alone
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
    the seeds start at index ``trials``, after that run's rotation seeds.
    The blocks are drawn and searched one :func:`_gaussian_blocks` block at
    a time; each row's distance depends on that row alone."""
    dist = np.empty(GAUSS_TRIALS)
    for lo, rows in _gaussian_blocks(master_seed, trials, GAUSS_TRIALS, codebook.block_dim):
        dist[lo:lo + len(rows)] = _nearest_sq_dist(rows, codebook.centroids)[0]
    return dist
