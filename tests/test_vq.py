import hashlib
import itertools
import math

import numpy as np
import pytest

from rotquant.core import RotationSpec, apply_rotation, fwht, layer_signs, rotate_normalized
from rotquant.metrics import conditional_cov_exact
from rotquant.rng import Xoshiro256pp, derive_seeds
from rotquant.vq import (
    NEAREST_BLOCK_ROWS,
    Codebook,
    conditional_cov_trials,
    stein_diagnostic_constant,
    train_gaussian_codebook,
    verify_codebook_universality,
    vq_decode,
    vq_encode,
)
from rotquant import vq
from rotquant.vq import _TRAIN_BLOCK_ROWS, _lloyd, _nearest_sq_dist
from _oracles import (STEIN_A4, reference_expanded_sq_dist, reference_lloyd,
                      reference_nearest_sq_dist, reference_train_gaussian_codebook)

RNG = np.random.default_rng(11)


def two_spike(d):
    x = np.zeros(d)
    x[0] = x[1] = 1.0 / math.sqrt(2.0)
    return x


# --- smoothness diagnostic ----------------------------------------------------

def test_stein_constant_values():
    assert stein_diagnostic_constant(1) == 49.4
    assert math.isclose(stein_diagnostic_constant(4), STEIN_A4, rel_tol=1e-12)


def test_stein_constant_monotone():
    vals = [stein_diagnostic_constant(k) for k in range(1, 65)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        stein_diagnostic_constant(0)


# --- codebook container -------------------------------------------------------

def test_codebook_validation():
    c = RNG.standard_normal((8, 4))
    cb = Codebook(c, train_seed=3)
    assert (cb.n_centroids, cb.block_dim) == (8, 4)
    assert cb.radius == math.sqrt(max(float(np.sum(row * row)) for row in c))
    assert not cb.centroids.flags.writeable
    assert c.flags.writeable  # the caller's array is copied, not frozen
    bad = c.copy()
    bad[0, 0] = np.nan
    for centroids, message in [
        (bad, "finite"),
        (np.full((2, 4), 1e200), "overflow"),  # finite, but |c|^2 is inf
        (c[0], "non-empty 2-d"),
        (np.zeros((0, 4)), "non-empty 2-d"),
        (np.zeros((3, 0)), "non-empty 2-d"),
    ]:
        with pytest.raises(ValueError, match=message):
            Codebook(centroids, train_seed=3)


# --- training -----------------------------------------------------------------

def test_training_is_deterministic():
    a = train_gaussian_codebook(4, 8, train_seed=99, n_samples=2000)
    b = train_gaussian_codebook(4, 8, train_seed=99, n_samples=2000)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.radius == b.radius
    c = train_gaussian_codebook(4, 8, train_seed=100, n_samples=2000)
    assert not np.array_equal(a.centroids, c.centroids)


def test_training_validation():
    with pytest.raises(ValueError):
        train_gaussian_codebook(0, 4, train_seed=0)
    with pytest.raises(ValueError):
        train_gaussian_codebook(4, 0, train_seed=0)
    with pytest.raises(ValueError):
        train_gaussian_codebook(4, 100, train_seed=0, n_samples=500)
    for seed in (-1, 1 << 64, 1.5):
        with pytest.raises(ValueError, match="master seed"):
            train_gaussian_codebook(4, 4, train_seed=seed, n_samples=100)


def test_single_centroid_is_near_zero_mean():
    # one Lloyd cluster converges to the sample mean, which for a million
    # standard-normal blocks is within a few sqrt(k/n) of the origin
    n = 1_000_000
    cb = train_gaussian_codebook(4, 1, train_seed=5, n_samples=n)
    assert cb.n_centroids == 1
    assert np.linalg.norm(cb.centroids[0]) <= 4.0 * math.sqrt(4.0 / n)


def test_two_centroids_match_folded_mean():
    # scalar 2-means on a standard normal sits at +-E|Z| = +-sqrt(2/pi)
    cb = train_gaussian_codebook(1, 2, train_seed=17)
    vals = np.sort(cb.centroids[:, 0])
    want = math.sqrt(2.0 / math.pi)
    assert abs(-vals[0] - want) <= 0.01
    assert abs(vals[1] - want) <= 0.01


def test_block_sampler_second_moment():
    samples = Xoshiro256pp(derive_seeds(31, 0, 20000)).gaussians(4)
    sq = np.einsum("ij,ij->i", samples, samples)
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - 4.0) <= 5.0 * se


# --- encode / decode ----------------------------------------------------------

def test_nearest_ties_break_to_lowest_index():
    row = np.array([0.5, 0.3])
    cents = np.array([[0.0, 0.0], [1.0, 0.0], row, [2.0, 2.0], [3.0, 3.0], row])
    cb = Codebook(cents, train_seed=0)
    dist, j = _nearest_sq_dist(row[None, :], cb.centroids)
    assert j[0] == 2
    assert dist[0] == 0.0


def _search_case(n):
    """``n`` Gaussian rows against 16 centroids.  The last row ties between
    centroids 5 and 9 at squared distance exactly 1; when ``n > 1`` the
    middle row sits a rounding error away from centroid 0, where the expanded
    distance comes out negative before the clamp."""
    rng = np.random.default_rng(n)
    points = rng.standard_normal((n, 4))
    cents = rng.standard_normal((16, 4))
    cents[5] = (4.0, 4.0, 4.0, 3.0)
    cents[9] = (4.0, 4.0, 4.0, 5.0)
    if n:
        points[-1] = 4.0
    if n > 1:
        for _ in range(1000):
            cents[0] = rng.standard_normal(4) * 1e3
            points[n // 2] = np.nextafter(cents[0], np.inf)
            if reference_expanded_sq_dist(points, cents)[n // 2, 0] < 0.0:
                break
        else:
            pytest.fail("no row with a negative expanded distance found")
    return points, cents


@pytest.mark.parametrize("n", [0, 1, NEAREST_BLOCK_ROWS - 1, NEAREST_BLOCK_ROWS,
                               NEAREST_BLOCK_ROWS + 1, 3 * NEAREST_BLOCK_ROWS + 7])
def test_nearest_matches_reference_bit_for_bit(n):
    points, cents = _search_case(n)
    dist, idx = _nearest_sq_dist(points, cents)
    want_dist, want_idx = reference_nearest_sq_dist(points, cents)
    assert dist.dtype == want_dist.dtype and idx.dtype == want_idx.dtype
    assert dist.tobytes() == want_dist.tobytes()
    assert idx.tobytes() == want_idx.tobytes()
    p_sq = np.einsum("ij,ij->i", points, points)
    again = _nearest_sq_dist(points, cents, p_sq)
    assert again[0].tobytes() == dist.tobytes() and np.array_equal(again[1], idx)
    if n:
        assert (idx[-1], dist[-1]) == (5, 1.0)
    if n > 1:
        assert (idx[n // 2], dist[n // 2]) == (0, 0.0)


def test_training_matches_reference_bit_for_bit():
    n = 3 * NEAREST_BLOCK_ROWS + 5
    for config in [(4, 16, 2024), (4, 16, 7), (4, 16, 12345), (4, 16, 1), (2, 4, 1),
                   (4, 8, 99), (1, 2, 17)]:
        cb = train_gaussian_codebook(*config, n_samples=n)
        want = reference_train_gaussian_codebook(*config, n_samples=n)
        assert cb.centroids.tobytes() == want.tobytes(), config


def test_report_codebook_bytes_are_pinned():
    cb = train_gaussian_codebook(4, 16, train_seed=2024)
    assert hashlib.sha256(cb.centroids.tobytes()).hexdigest() == (
        "be07d9946b83d53681f6c30939fd76e0c0ddf275739c7daae6939d9df39ada30")


def _lloyd_cases():
    """Samples and initial centroids that stress the bounds."""
    rng = np.random.default_rng(25)
    grid = np.array(list(itertools.product(range(-3, 4), repeat=2)), dtype=float)
    rows = rng.standard_normal((6, 3))
    outlier = np.vstack([rng.standard_normal((300, 2)), np.full((3, 2), 100.0)])
    cases = [
        # the origin ties between all four centroids, (1, 1) between two;
        # the grid's symmetry keeps such ties as the centroids move
        pytest.param(np.tile(grid, (3, 1)), np.array([[-1.0, 0], [1, 0], [0, -1], [0, 1]]),
                     id="grid ties"),
        pytest.param(np.repeat(rows, 50, axis=0), rows[[0, 2, 4]], id="duplicated rows"),
        # centroid 2 repeats centroid 1, so its cluster empties and the
        # farthest row, the first copy of the outlier, reseeds it; then
        # centroids 0 and 2 both sit on the outlier, and the reseeded row
        # ties back to centroid 0
        pytest.param(outlier, np.array([[50.0, 50.0], [0, 0], [0, 0]]), id="outlier reseed"),
    ]
    for scale in (1e-3, 1e3):
        samples = rng.standard_normal((3000, 4)) * scale
        cases.append(pytest.param(samples, samples[:8], id=f"scale {scale:g}"))
    # blocks of the Lloyd pass: one short block, and a short last block
    for n, name in ((_TRAIN_BLOCK_ROWS - 1, "below a block"),
                    (2 * _TRAIN_BLOCK_ROWS + 77, "blocks and a remainder")):
        samples = rng.standard_normal((n, 3))
        cases.append(pytest.param(samples, samples[-6:], id=name))
    return cases


@pytest.mark.parametrize("samples,centroids", _lloyd_cases())
def test_bounded_lloyd_matches_plain_lloyd_bit_for_bit(samples, centroids):
    cols = np.ascontiguousarray(samples.T)
    p_sq = np.einsum("ij,ij->i", samples, samples)
    assert _lloyd(cols, p_sq, centroids).tobytes() == reference_lloyd(samples, centroids).tobytes()


def test_bounded_lloyd_searches_few_rows(monkeypatch):
    searched = []
    search = vq._nearest_sq_dist

    def spy(points, centroids, p_sq=None, rows=None, **kwargs):
        searched.append(points.shape[0] if rows is None else rows.size)
        return search(points, centroids, p_sq, rows, **kwargs)

    monkeypatch.setattr(vq, "_nearest_sq_dist", spy)
    n = 3 * NEAREST_BLOCK_ROWS + 5
    train_gaussian_codebook(4, 16, train_seed=2024, n_samples=n)
    assert sum(searched) < 0.5 * len(searched) * n


def test_encode_indices_match_reference_search():
    d = 4096
    x = np.random.default_rng(3).standard_normal(d)
    spec = RotationSpec(dim=d, layers=3, seed=4242)
    cb = train_gaussian_codebook(4, 16, train_seed=2024, n_samples=4000)
    idx, scale = vq_encode(x, spec, cb)
    u, want_scale = rotate_normalized(x, spec)
    _, want = reference_nearest_sq_dist(u.reshape(-1, 4), cb.centroids)
    assert scale == want_scale
    assert np.array_equal(idx, want)


def test_codebook_of_realized_blocks_gives_zero_error():
    d, k = 32, 4
    x = RNG.standard_normal(d)
    spec = RotationSpec(dim=d, layers=3, seed=77)
    y = apply_rotation(x, spec)
    scale = float(np.linalg.norm(y)) / math.sqrt(d)
    blocks = (y / scale).reshape(-1, k)
    cb = Codebook(blocks, train_seed=0)
    idx, s = vq_encode(x, spec, cb)
    assert idx.tolist() == list(range(d // k))
    back = vq_decode(idx, s, spec, cb)
    assert np.max(np.abs(back - x)) <= 1e-9


def test_zero_centroid_decodes_to_zero():
    cb = Codebook(np.zeros((1, 4)), train_seed=0)
    out = vq_decode(np.zeros(8, dtype=np.uint32), 3.7,
                    RotationSpec(dim=32, layers=2, seed=4), cb)
    assert np.array_equal(out, np.zeros(32))


def test_indices_are_scale_invariant():
    d = 64
    x = RNG.standard_normal(d)
    spec = RotationSpec(dim=d, layers=3, seed=8)
    cb = train_gaussian_codebook(4, 16, train_seed=2024, n_samples=4000)
    i1, s1 = vq_encode(x, spec, cb)
    i2, s2 = vq_encode(1e3 * x, spec, cb)
    assert np.array_equal(i1, i2)
    assert math.isclose(s2, 1e3 * s1, rel_tol=1e-12)
    r1 = vq_decode(i1, s1, spec, cb)
    r2 = vq_decode(i2, s2, spec, cb)
    v1 = np.sum((r1 - x) ** 2) / np.sum(x**2)
    v2 = np.sum((r2 - 1e3 * x) ** 2) / np.sum((1e3 * x) ** 2)
    assert math.isclose(v1, v2, rel_tol=1e-9)


def test_reconstruction_error_decomposes_over_blocks():
    # the rotation is orthogonal, so |xhat - x|^2 = scale^2 sum_blk |U_blk - c|^2
    d, k = 128, 4
    x = RNG.standard_normal(d)
    spec = RotationSpec(dim=d, layers=2, seed=21)
    cb = train_gaussian_codebook(k, 16, train_seed=2024, n_samples=4000)
    idx, scale = vq_encode(x, spec, cb)
    u = apply_rotation(x, spec) / scale
    block_err = np.sum((u.reshape(-1, k) - cb.centroids[idx.astype(np.int64)]) ** 2)
    lhs = float(np.sum((vq_decode(idx, scale, spec, cb) - x) ** 2))
    assert math.isclose(lhs, scale**2 * block_err, rel_tol=1e-9)


def test_decode_validation():
    cb = train_gaussian_codebook(4, 8, train_seed=1, n_samples=2000)
    spec = RotationSpec(dim=32, layers=2, seed=0)
    with pytest.raises(ValueError):
        vq_decode(np.zeros(7, dtype=np.uint32), 1.0, spec, cb)
    with pytest.raises(ValueError):
        vq_decode(np.full(8, 8, dtype=np.uint32), 1.0, spec, cb)
    with pytest.raises(ValueError, match="1-d array: indices has shape"):
        vq_decode(np.zeros((2, 4), dtype=np.uint32), 1.0, spec, cb)
    for bad in ([1.7, 0.2] * 4, np.zeros(8)):
        with pytest.raises(ValueError, match="must be integers"):
            vq_decode(bad, 1.0, spec, cb)
    for scale in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale must be finite and non-negative"):
            vq_decode(np.zeros(8, dtype=np.uint32), scale, spec, cb)
    assert np.array_equal(vq_decode([1, 0] * 4, 1.0, spec, cb),
                          vq_decode(np.array([1, 0] * 4, dtype=np.uint32),
                                    1.0, spec, cb))
    with pytest.raises(ValueError):
        vq_encode(np.ones(32), RotationSpec(dim=32, layers=2, seed=0),
                  train_gaussian_codebook(3, 4, train_seed=1, n_samples=1000))


# --- final-layer conditional covariance ---------------------------------------

def test_pair_covariance_two_spike_is_two_valued():
    d = 64
    covs, linf = conditional_cov_trials(two_spike(d), 0, 1, layers=2, trials=64)
    assert np.all(np.abs(np.abs(covs) - 1.0) <= 5e-16)
    assert (covs > 0).any() and (covs < 0).any()
    # with 2 layers the pre-final vector is the input itself
    assert np.allclose(linf, 0.5, atol=1e-15)


def test_pair_covariance_matches_exact_formula():
    d = 32
    x = RNG.standard_normal(d)
    xu = x / np.linalg.norm(x)
    seeds = derive_seeds(0, 0, 8)
    covs2, _ = conditional_cov_trials(x, 3, 9, layers=2, trials=8)
    covs3, linf3 = conditional_cov_trials(x, 3, 9, layers=3, trials=8)
    for t in range(8):
        w_in = layer_signs(seeds[t : t + 1], 1, d)[0] * xu
        assert abs(covs2[t] - conditional_cov_exact(xu, layer_signs(seeds[t : t + 1], 1, d)[0], 3, 9)) <= 1e-12
        a = fwht(w_in, normalize=True)
        assert abs(covs3[t] - conditional_cov_exact(a, layer_signs(seeds[t : t + 1], 2, d)[0], 3, 9)) <= 1e-12
        assert abs(linf3[t] - np.max(np.abs(a)) ** 2) <= 1e-15


def test_flat_input_covariance_second_moment():
    # for the flat vector every pair has E[C^2] = 2/d over the sign plane
    d, trials = 64, 3000
    covs, _ = conditional_cov_trials(np.full(d, 1.0), 0, 5, layers=2, trials=trials)
    sq = covs * covs
    se = sq.std(ddof=1) / math.sqrt(trials)
    assert abs(sq.mean() - 2.0 / d) <= 5.0 * se + 1e-12


def test_rms_covariance_validation():
    # trial counts and bad inputs: test_harness.py's shared estimator contract
    x = two_spike(16)
    with pytest.raises(ValueError):
        conditional_cov_trials(x, 0, 0, layers=2, trials=100)
    with pytest.raises(ValueError):
        conditional_cov_trials(x, 0, 1, layers=1, trials=100)
    with pytest.raises(ValueError):
        conditional_cov_trials(x, 0, 16, layers=2, trials=100)


# --- universality check -------------------------------------------------------

def test_universality_reports_shape_and_fields():
    cb = train_gaussian_codebook(4, 16, train_seed=2024, n_samples=4000)
    rht = verify_codebook_universality(two_spike(16), cb, dims=(16, 32), trials=400)
    gauss = vq.gaussian_distortions(cb, 400)
    assert [r.shape for r in rht] == [(400,), (400,)]
    assert gauss.shape == (vq.GAUSS_TRIALS,)  # one Gaussian baseline for every dim
    for errs in (*rht, gauss):
        assert errs.dtype == np.float64 and np.all(errs >= 0.0)
    assert all(0.0 < errs.mean() < 4.0 for errs in rht)


@pytest.mark.parametrize("block_dim", [4, 3])
def test_gaussian_distortions_match_one_shot_search(block_dim):
    # drawn and searched block by block, against one draw of every row
    cb = train_gaussian_codebook(block_dim, 8, train_seed=1, n_samples=2000)
    blocks = Xoshiro256pp(derive_seeds(9, 400, vq.GAUSS_TRIALS)).gaussians(block_dim)
    want = _nearest_sq_dist(blocks, cb.centroids)[0]
    assert vq.gaussian_distortions(cb, 400, 9).tobytes() == want.tobytes()


def test_universality_validation(monkeypatch):
    cb = train_gaussian_codebook(4, 8, train_seed=1, n_samples=2000)

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before every argument was checked")

    # every argument, each dim of the list included, is checked before any trial
    monkeypatch.setattr(vq, "map_rotated", no_trials)
    for x, dims, message in [
        (np.zeros(16), (16,), "input must be finite and non-zero"),
        (two_spike(16), (), "need at least one dimension"),
        (two_spike(16), (16, 20), "power of two"),
        (two_spike(2), (16, 2), "multiple of the block size"),
        (two_spike(16), (32, 8), "longer than the target dimension"),
    ]:
        with pytest.raises(ValueError, match=message):
            verify_codebook_universality(x, cb, dims=dims, trials=100)
