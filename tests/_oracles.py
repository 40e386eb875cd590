"""Frozen reference values and reference kernels shared across test modules.

The constants were computed with mpmath at 50-60 decimal digits (Gamma
ratios, normal CDF, per-cell quadrature of the quantizer error against the
Gaussian weight) and then rounded once to binary64.  Tests compare library
output against these constants instead of re-deriving them, so a regression
in the library cannot silently re-generate its own expectations.

``reference_fwht`` is the plain iterative butterfly that the library's
blocked FWHT kernel, and its integer kernel on packed signs, must match bit
for bit; ``reference_drive_decode`` is the textbook DRIVE decode built on it.  ``reference_nearest_sq_dist`` is
the BLAS-free expanded-form nearest-centroid search, over all rows at once,
that the library's tiled kernel must match bit for bit, and
``reference_lloyd`` is the plain Lloyd trainer built on it, whose centroid
bytes the library's bounded trainer must reproduce.
"""

import math

import numpy as np

from rotquant.rng import Xoshiro256pp, derive_seed, derive_seeds


def reference_fwht(v, normalize=False):
    """Walsh-Hadamard transform along the last axis, one whole-array stage at
    a time: for ``h = 1, 2, 4, ...`` each pair ``(top, bottom)`` becomes
    ``(top + bottom, top - bottom)``; then, if asked, divide by ``sqrt(d)``."""
    a = np.array(v, dtype=np.float64, copy=True)
    d = a.shape[-1]
    shape = a.shape
    a = a.reshape(-1, d)
    h = 1
    while h < d:
        a3 = a.reshape(a.shape[0], d // (2 * h), 2, h)
        top = a3[:, :, 0, :].copy()
        a3[:, :, 0, :] += a3[:, :, 1, :]
        np.subtract(top, a3[:, :, 1, :], out=a3[:, :, 1, :])
        h *= 2
    a = a.reshape(shape)
    if normalize:
        a /= math.sqrt(d)
    return a


def reference_drive_decode(payload):
    """``scale * R^{-1} s`` of a DRIVE payload: the signs ``s`` unpacked to
    +/-1 floats, then for ``l = L, ..., 1`` ``reference_fwht(., True)`` and
    the sign plane of layer ``l``, drawn from ``Xoshiro256pp([seed ^ l])``."""
    spec = payload.spec
    bits = np.unpackbits(np.frombuffer(payload.sign_bits, dtype=np.uint8),
                         count=spec.dim, bitorder="little")
    v = 1.0 - 2.0 * bits
    for layer in range(spec.layers, 0, -1):
        plane = Xoshiro256pp([spec.seed ^ layer]).sign_values(spec.dim)[0]
        v = reference_fwht(v, normalize=True) * plane
    return payload.scale * v


def reference_nearest_sq_dist(points, centroids):
    """Squared distance to, and index of, the nearest centroid (ties break
    to the lowest index), from the expanded form over all rows at once:
    ``(-2 c_0) p_0``, plus ``(-2 c_j) p_j`` for ``j`` ascending, plus
    ``|p|^2``, plus ``|c|^2``, clamped at zero."""
    d2 = reference_expanded_sq_dist(points, centroids)
    np.maximum(d2, 0.0, out=d2)
    idx = np.argmin(d2, axis=1)
    return d2[np.arange(points.shape[0]), idx], idx


def reference_expanded_sq_dist(points, centroids):
    """The ``(rows, centroids)`` expanded-form squared distances of
    ``reference_nearest_sq_dist`` before the clamp."""
    m2c = -2.0 * centroids
    d2 = points[:, :1] * m2c[:, 0]
    for j in range(1, points.shape[1]):
        d2 = d2 + points[:, j:j + 1] * m2c[:, j]
    d2 = d2 + np.einsum("ij,ij->i", points, points)[:, None]
    return d2 + np.einsum("ij,ij->i", centroids, centroids)


def reference_train_gaussian_codebook(block_dim, n_centroids, train_seed,
                                      n_samples=1 << 17):
    """Centroids of the deterministic k-means++ then Lloyd training that
    ``vq.train_gaussian_codebook`` documents."""
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
    return reference_lloyd(samples, centroids)


def reference_lloyd(samples, centroids, max_iters=50, rel_tol=1e-6):
    """Plain Lloyd iterations: every row searched with
    ``reference_nearest_sq_dist`` in every iteration; an empty cluster is
    reseeded from the row farthest from its centroid."""
    n_centroids, block_dim = centroids.shape
    prev_inertia = math.inf
    for _ in range(max_iters):
        min_d2, assign = reference_nearest_sq_dist(samples, centroids)
        counts = np.bincount(assign, minlength=n_centroids)
        for m in np.nonzero(counts == 0)[0]:
            far = int(np.argmax(min_d2))
            assign[far] = m
            min_d2[far] = 0.0
        counts = np.bincount(assign, minlength=n_centroids)
        sums = np.zeros((n_centroids, block_dim))
        for j in range(block_dim):
            sums[:, j] = np.bincount(assign, weights=samples[:, j],
                                     minlength=n_centroids)
        centroids = sums / counts[:, None]
        inertia = float(min_d2.sum())
        if prev_inertia - inertia < rel_tol * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    return centroids


# c_d = sqrt(d/pi) * Gamma(d/2) / Gamma((d+1)/2)
CD_ORACLE = {
    1: 1.0,
    2: 0.9003163161571061,
    3: 0.8660254037844386,
    4: 0.8488263631567752,
    8: 0.8231463462007826,
    16: 0.8104412082727624,
    64: 0.8010072653992099,
    255: 0.7986671821376639,
    256: 0.7986641235456917,
    257: 0.7986610887673877,
    1024: 0.7980793805879962,
    4096: 0.7979332612974257,
    65536: 0.797887604496723,
    1 << 20: 0.7978847510333913,
}

# (t, Phi(t))
NORMAL_CDF_ORACLE = [
    (-3.0, 0.0013498980316300946),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (1.96, 0.9750021048517795),
    (2.5758293035489004, 0.995),
    (3.0, 0.9986501019683699),
]

QUANTILE_995 = 2.575829303548901  # Phi^{-1}(0.995)

# E[e(Z)] for Z ~ N(0,1), quantizer (bits, tail_mass) -> mean error
EXPECTED_ERROR_ORACLE = {
    (2, 0.01): 0.48825982247156713,
    (3, 0.05): 0.0497136635030483,
    (1, 0.2): 0.9637198561969419,
}

THRESHOLD_ORACLE = {
    0.01: 2.575829303548901,
    0.05: 1.9599639845400543,
    0.2: 1.2815515655446004,
}

TV_B2_P001 = 4.42326440068081  # 2 t^2 / 3 at t = Phi^{-1}(0.995)

STEIN_A4 = 58.002497278918035  # 4 (11.1 + 0.83 ln 4) + 4 sqrt(4) + 1
