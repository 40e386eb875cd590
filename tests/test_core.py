import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from rotquant import core
from rotquant.core import (
    FWHT_BLOCK_ELEMS,
    MAX_LAYERS,
    TRIAL_BLOCK,
    RotationSpec,
    apply_rotation,
    check_dim,
    fwht,
    fwht_sign_bits,
    inverse_rotation,
    layer_signs,
    map_rotated,
    map_trials,
    mean_se,
    rotate_many,
    run_ordered,
    sign_vector,
    unit_vector,
    unpack_sign_bits,
)
from rotquant.generators import gen_adversarial
from rotquant.rng import MASK64, derive_seed, derive_seeds
from _oracles import reference_fwht

RNG = np.random.default_rng(20240817)


# --- fwht ---------------------------------------------------------------

def test_fwht_d2_first_column():
    out = fwht(np.array([1.0, 0.0]), normalize=True)
    assert np.array_equal(out, np.array([1.0, 1.0]) / math.sqrt(2.0))


def test_fwht_flat_maps_to_e0():
    out = fwht(np.ones(4))
    assert np.array_equal(out, np.array([4.0, 0.0, 0.0, 0.0]) / 2.0 * 2.0)
    assert np.array_equal(fwht(np.ones(4), normalize=True), np.array([2.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("d", [1, 2, 4, 8, 32, 64])
def test_fwht_matches_sylvester_matrix(d):
    h = hadamard(d).astype(np.float64)
    x = RNG.standard_normal(d)
    assert np.allclose(fwht(x), h @ x, rtol=0, atol=1e-12 * d)
    # column k of H is fwht(e_k)
    for k in (0, d - 1, d // 2):
        e = np.zeros(d)
        e[k] = 1.0
        assert np.array_equal(fwht(e), h[:, k])


def test_fwht_involution():
    x = RNG.standard_normal(8)
    back = fwht(fwht(x, normalize=True), normalize=True)
    assert np.max(np.abs(back - x)) <= 1e-12


def test_fwht_batched_rows():
    xs = RNG.standard_normal((5, 16))
    batch = fwht(xs)
    for i in range(5):
        assert np.array_equal(batch[i], fwht(xs[i]))


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fwht(np.ones(6))


# --- fwht kernel against the reference butterfly ----------------------------

def _wide_range_rows(n, d):
    """Rows whose magnitudes span twelve decades, so that most additions
    round and any change in the order of operations shows in the bits."""
    return RNG.standard_normal((n, d)) * 10.0 ** RNG.uniform(-6, 6, (n, d))


@pytest.mark.parametrize("d", [1 << p for p in range(21)])
def test_fwht_matches_reference_bit_for_bit(d):
    # One more row than a row block holds, so the last block is ragged; at
    # d > FWHT_BLOCK_ELEMS each row spans several blocks.
    rows = FWHT_BLOCK_ELEMS // min(d, FWHT_BLOCK_ELEMS) + 1
    x = _wide_range_rows(rows, d)
    x[0, 0] = -0.0
    before = x.copy()
    for normalize in (False, True):
        expected = reference_fwht(x, normalize)
        assert np.array_equal(fwht(x, normalize), expected)
        assert np.array_equal(fwht(x[1], normalize), expected[1])
        assert np.array_equal(x, before)
        other = np.empty_like(x)
        assert fwht(x, normalize, out=other) is other
        assert np.array_equal(other, expected)
        in_place = x.copy()
        assert fwht(in_place, normalize, out=in_place) is in_place
        assert np.array_equal(in_place, expected)


def test_fwht_any_layout_matches_reference():
    x = _wide_range_rows(6, 128)
    cases = {
        "3-d": x.reshape(2, 3, 128),
        "strided columns": x[:, ::2],
        "strided rows": x[::2],
        "fortran order": np.asfortranarray(x),
        "transposed": x.reshape(6, 2, 64).transpose(1, 0, 2),
        "float32": x.astype(np.float32),
        "list": x[0].tolist(),
    }
    for name, v in cases.items():
        before = np.array(v, copy=True)
        for normalize in (False, True):
            got = fwht(v, normalize)
            assert np.array_equal(got, reference_fwht(v, normalize)), name
            assert got.flags.c_contiguous, name
        assert np.array_equal(np.asarray(v), before), name


def test_fwht_rejects_bad_out():
    buf = np.zeros(17)
    x = np.ones((2, 8))
    bad_outs = [
        np.empty(8),                      # wrong shape
        np.empty((2, 8), np.float32),     # wrong dtype
        np.empty((2, 16))[:, ::2],        # not contiguous
        np.asfortranarray(np.empty((2, 8))),
        [[0.0] * 8] * 2,                  # not an array
    ]
    for out in bad_outs:
        with pytest.raises(ValueError, match="out must be"):
            fwht(x, out=out)
    read_only = np.empty((2, 8))
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="out must be"):
        fwht(x, out=read_only)
    with pytest.raises(ValueError, match="overlap"):
        fwht(buf[:16], out=buf[1:])


def test_fwht_and_rotate_many_agree_across_threads():
    """Concurrent calls each use their own scratch buffers, so results match
    serial calls bit for bit (the ``--threads`` determinism contract)."""
    jobs = [(d, n, seed) for seed, (d, n) in enumerate(
        [(1 << 10, 40), (1 << 16, 8), (256, 300), (1 << 17, 4)] * 3)]
    inputs = {job: _wide_range_rows(job[1], job[0]) for job in jobs}

    def work(job):
        x, seeds = inputs[job], derive_seeds(job[2], 0, job[1])
        return (fwht(x, normalize=True), rotate_many(x, 3, seeds),
                rotate_many(x, 2, seeds, inverse=True))

    serial = [work(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work, job) for job in jobs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


# --- sign planes ----------------------------------------------------------

def test_layer_signs_deterministic():
    seeds = derive_seeds(7, 0, 3)
    a = layer_signs(seeds, 1, 128)
    b = layer_signs(seeds, 1, 128)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, layer_signs(seeds, 2, 128))


def test_layer_signs_d1():
    s = layer_signs(derive_seeds(0, 0, 4), 1, 1)
    assert s.shape == (4, 1)
    assert set(np.unique(s)) <= {-1.0, 1.0}


def test_layer_signs_layer_keying():
    # layer ell reads the stream keyed seed XOR ell
    from rotquant.rng import Xoshiro256pp

    seeds = derive_seeds(99, 0, 2)
    want = Xoshiro256pp(seeds ^ np.uint64(3)).sign_values(64)
    assert np.array_equal(layer_signs(seeds, 3, 64), want)


def test_layer_signs_balance():
    d = 4096
    s = layer_signs(derive_seeds(5, 0, 8), 1, d)
    counts = (s < 0).sum(axis=1)
    assert np.all(np.abs(counts - d / 2) <= 3.0 * math.sqrt(d))


def test_derive_signs_roundtrip():
    """A layer's sign plane survives packing to one bit per sign."""
    plane = layer_signs([11], 2, 64)[0]
    assert np.array_equal(unpack_sign_bits(sign_vector(plane), 64), plane)
    assert np.array_equal(plane, layer_signs(np.array([11], dtype=np.uint64), 2, 64)[0])


def test_sign_vector_packing():
    v = np.array([1.0, -2.0, 0.0, -0.5, 3.0, -1.0, -1.0, 1.0, -4.0])
    packed = sign_vector(v)
    assert len(packed) == 2
    # little-endian within bytes: coordinate j is bit j % 8 of byte j // 8
    assert packed[0] == (1 << 1) | (1 << 3) | (1 << 5) | (1 << 6)
    assert packed[1] == 1
    assert np.array_equal(unpack_sign_bits(packed, 9), np.where(v < 0, -1.0, 1.0))


def test_sign_vector_all_negative():
    packed = sign_vector(-np.ones(16))
    assert packed == b"\xff\xff"
    assert np.array_equal(unpack_sign_bits(packed, 16), -np.ones(16))


def test_sign_vector_odd_symmetry_off_zero():
    v = RNG.standard_normal(40)
    v[v == 0] = 1.0
    a = unpack_sign_bits(sign_vector(v), 40)
    b = unpack_sign_bits(sign_vector(-v), 40)
    assert np.array_equal(a, -b)


def test_sign_of_zero_is_positive():
    assert unpack_sign_bits(sign_vector(np.zeros(3)), 3).tolist() == [1.0, 1.0, 1.0]


def test_unpack_rejects_wrong_length():
    with pytest.raises(ValueError):
        unpack_sign_bits(b"\x00", 16)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1 << p for p in range(21)])
def test_fwht_sign_bits_matches_reference_bit_for_bit(d):
    # a random row, all +1 and all -1: index 0 of the last two is +-d before
    # the division, which int16 holds at 2^14 and not at 2^15
    n = (d + 7) // 8
    packed = np.stack([RNG.integers(0, 256, n, dtype=np.uint8),
                       np.zeros(n, np.uint8), np.full(n, 255, np.uint8)])
    expected = reference_fwht(unpack_sign_bits(packed, d), normalize=True)
    assert expected[1, 0] == -expected[2, 0] == d / math.sqrt(d)
    assert _same_bits(fwht_sign_bits(packed, d), expected)
    assert _same_bits(fwht_sign_bits(packed[0].tobytes(), d), expected[0])
    if d < 8:  # the padding bits are garbage, which the kernel ignores
        garbage = packed | np.uint8(0xFF << d & 0xFF)
        assert _same_bits(fwht_sign_bits(garbage, d), expected)


@pytest.mark.parametrize("m, d", [(64, 4096), (1024, 256), (4096, 64), (37, 512), (3, 1 << 16)])
def test_fwht_sign_bits_batches_match_reference(m, d):
    packed = RNG.integers(0, 256, (m, d // 8), dtype=np.uint8)
    expected = reference_fwht(unpack_sign_bits(packed, d), normalize=True)
    assert _same_bits(fwht_sign_bits(packed, d), expected)
    out = np.empty((m, d))
    assert fwht_sign_bits(packed, d, out=out) is out
    assert _same_bits(out, expected)
    stacked = fwht_sign_bits(packed[:m // 2 * 2].reshape(2, m // 2, d // 8), d)
    assert _same_bits(stacked.reshape(-1, d), expected[:m // 2 * 2])
    assert fwht_sign_bits(packed[:0], d).shape == (0, d)


def test_fwht_sign_bits_rejects_bad_input():
    with pytest.raises(ValueError, match="length"):
        fwht_sign_bits(b"\x00", 16)
    with pytest.raises(ValueError, match="uint8"):
        fwht_sign_bits(np.zeros((2, 2), np.int64), 16)
    with pytest.raises(ValueError, match="power of two"):
        fwht_sign_bits(b"\x00", 3)
    with pytest.raises(ValueError, match="out must be"):
        fwht_sign_bits(np.zeros((2, 2), np.uint8), 16, out=np.empty(16))
    buf = np.zeros(129)
    with pytest.raises(ValueError, match="overlap"):
        fwht_sign_bits(buf[:2].view(np.uint8)[None], 128, out=buf[1:][None])


# --- rotations ------------------------------------------------------------

def test_layers0_is_identity():
    x = RNG.standard_normal(32)
    spec = RotationSpec(dim=32, layers=0, seed=123)
    assert np.array_equal(apply_rotation(x, spec), x)
    assert np.array_equal(inverse_rotation(x, spec), x)


def test_rotation_preserves_norm():
    x = RNG.standard_normal(4096)
    spec = RotationSpec(dim=4096, layers=2, seed=9)
    y = apply_rotation(x, spec)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_rotation_roundtrip(layers):
    x = RNG.standard_normal(1024)
    spec = RotationSpec(dim=1024, layers=layers, seed=77)
    back = inverse_rotation(apply_rotation(x, spec), spec)
    assert np.max(np.abs(back - x)) <= 1e-10


def test_single_layer_inverse_by_hand():
    d = 16
    spec = RotationSpec(dim=d, layers=1, seed=5)
    x = RNG.standard_normal(d)
    s1 = layer_signs([spec.seed], 1, d)[0]
    y = fwht(s1 * x, normalize=True)
    assert np.allclose(apply_rotation(x, spec), y, rtol=0, atol=1e-14)
    assert np.max(np.abs(s1 * fwht(y, normalize=True) - x)) <= 1e-12


def test_rotation_linearity():
    spec = RotationSpec(dim=64, layers=3, seed=2)
    x, y = RNG.standard_normal((2, 64))
    lhs = apply_rotation(2.5 * x - 0.5 * y, spec)
    rhs = 2.5 * apply_rotation(x, spec) - 0.5 * apply_rotation(y, spec)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_rotate_many_matches_reference_composition(layers):
    d, n = 512, 70
    seeds = derive_seeds(11, 0, n)
    signs = [layer_signs(seeds, layer, d) for layer in range(1, layers + 1)]
    for x in (_wide_range_rows(n, d), _wide_range_rows(1, d)[0]):
        y = np.broadcast_to(x, (n, d))
        for s in signs:
            y = reference_fwht(y * s, normalize=True)
        assert np.array_equal(rotate_many(x, layers, seeds), y)
        back = np.broadcast_to(x, (n, d))
        for s in reversed(signs):
            back = reference_fwht(back, normalize=True) * s
        assert np.array_equal(rotate_many(x, layers, seeds, inverse=True), back)


def test_rotate_many_rejects_non_integer_seeds_and_layers():
    # A uint64 cast used to truncate: seed 1.5 drew the planes of seed 1, and
    # layers=1.5 failed inside range() with a TypeError.
    x = RNG.standard_normal(16)
    with pytest.raises(ValueError, match="seeds"):
        rotate_many(x, 2, [1.5])
    with pytest.raises(ValueError, match="seeds"):
        rotate_many(x, 2, np.array([1.0]))
    with pytest.raises(ValueError, match="seeds"):
        rotate_many(x, 2, [-1])
    with pytest.raises(ValueError, match="layers"):
        rotate_many(x, 1.5, [1])
    with pytest.raises(ValueError, match="seeds"):
        layer_signs([2.5], 1, 16)
    with pytest.raises(ValueError, match="layer"):
        layer_signs([2], 1.0, 16)
    big = [0, 1, MASK64]  # numpy alone would infer float64 for this list
    assert np.array_equal(rotate_many(x, 2, big), rotate_many(x, 2, np.array(big, np.uint64)))


@pytest.mark.parametrize("layers", [0, 2])
def test_rotate_many_rejects_an_empty_seed_list(layers):
    # it used to return a (0, d) array at 0 layers and, at 1 or more, fail
    # in the generator with a message about "keys"
    x = RNG.standard_normal(16)
    for seeds in ([], np.array([], dtype=np.uint64)):
        with pytest.raises(ValueError, match="seeds must name at least one rotation"):
            rotate_many(x, layers, seeds)


def test_rotate_many_matches_single():
    x = RNG.standard_normal(128)
    seeds = derive_seeds(3, 0, 4)
    batch = rotate_many(x, 2, seeds)
    for i, seed in enumerate(seeds):
        one = apply_rotation(x, RotationSpec(dim=128, layers=2, seed=int(seed)))
        assert np.array_equal(batch[i], one)
    inv = rotate_many(batch, 2, seeds, inverse=True)
    assert np.max(np.abs(inv - x)) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rotate_many_rejects_non_finite_input(bad):
    rows = RNG.standard_normal((3, 16))
    rows[1, 5] = bad
    seeds = derive_seeds(3, 0, 3)
    for x in (rows, rows[1]):
        for inverse in (False, True):
            with pytest.raises(ValueError, match="input must be finite"):
                rotate_many(x, 2, seeds, inverse=inverse)
    spec = RotationSpec(dim=16, layers=2, seed=1)
    for fn in (apply_rotation, inverse_rotation):
        with pytest.raises(ValueError, match="input must be finite"):
            fn(rows[1], spec)


def test_two_spike_one_layer_support_set():
    """One rotation layer of the two-spike pattern lands every coordinate in
    {0, +-(spike+spike)} -- at power-of-4 dimensions the floats are exact.

    The magnitude is 2*fl(1/sqrt(2)), one ulp below fl(sqrt(2)); asserting
    the literal sqrt(2) float would be wrong, the exact set is still sharp.
    """
    from rotquant.generators import gen_adversarial

    for d in (4, 16, 64, 256):
        x = gen_adversarial("two_spike", d)
        magnitude = x[0] + x[0]
        assert abs(magnitude - math.sqrt(2.0)) <= 2.0 ** -52
        for seed in range(20):
            u = apply_rotation(x, RotationSpec(dim=d, layers=1, seed=seed)) * math.sqrt(d)
            assert set(np.unique(u)) <= {-magnitude, 0.0, magnitude}, (d, seed)


def test_spec_validation():
    with pytest.raises(ValueError):
        RotationSpec(dim=48, layers=1, seed=0)
    with pytest.raises(ValueError):
        RotationSpec(dim=64, layers=MAX_LAYERS + 1, seed=0)
    with pytest.raises(ValueError):
        RotationSpec(dim=64, layers=1, seed=-1)
    with pytest.raises(ValueError):
        RotationSpec(dim=64, layers=1, seed=1 << 64)
    assert check_dim(1) == 1


def test_spec_rejects_non_integer_fields():
    # A float seed used to be truncated by the uint64 cast (seed 1.5 drew the
    # planes of seed 1) and to fail in serialize with a struct.error.
    for bad in ({"seed": 1.5}, {"layers": 1.0}, {"dim": 8.0}, {"seed": "1"}):
        with pytest.raises(ValueError):
            RotationSpec(**{"dim": 8, "layers": 1, "seed": 1, **bad})
    spec = RotationSpec(dim=np.int64(8), layers=np.uint8(1), seed=np.uint64(MASK64))
    assert (spec.dim, spec.layers, spec.seed) == (8, 1, MASK64)
    assert all(type(v) is int for v in (spec.dim, spec.layers, spec.seed))


# --- Monte Carlo estimator rules ------------------------------------------------

@pytest.mark.parametrize("trials", [-1, 0, 1])
def test_map_trials_needs_two_trials(trials):
    with pytest.raises(ValueError, match="need at least two trials"):
        map_trials(np.ones((1, 8)), 2, trials, 0, lambda y, seeds: y)


def test_map_trials_needs_a_row():
    with pytest.raises(ValueError, match="non-empty 2-d array: xs has shape"):
        map_trials(np.ones((0, 8)), 2, 4, 0, lambda y, seeds: y)


@pytest.mark.parametrize("layers", range(MAX_LAYERS + 1))
@pytest.mark.parametrize("d", [2, 8, 2048, 1 << 16])
def test_map_rotated_rows_match_the_reference_rotation(d, layers, monkeypatch):
    """Row ``t`` of ``map_rotated`` is ``sqrt(d) R xu`` under the seed
    ``derive_seed(master_seed, t)``, bit for bit, with the trials split into
    several chunks (the last one short) run on two threads; at d = 2^16 the
    FWHT also runs its out-of-cache stages."""
    budget = 1 << 12
    monkeypatch.setattr(core, "TRIAL_CHUNK_ELEMS", budget)
    step = max(1, budget // d // TRIAL_BLOCK) * TRIAL_BLOCK
    trials = 2 * step + 3
    xu, _ = unit_vector(np.random.default_rng(d).standard_normal(d))
    rows = map_rotated(xu, layers, trials, 7, lambda u: u, threads=2)
    assert rows.shape == (trials, d)
    for t, row in enumerate(rows):
        spec = RotationSpec(d, layers, derive_seed(7, t))
        assert np.array_equal(row, math.sqrt(d) * apply_rotation(xu, spec))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("layers", range(MAX_LAYERS + 1))
@pytest.mark.parametrize("d", [2, 8, 2048, 1 << 16])
def test_map_trials_rows_match_the_reference_rotation(d, layers, n, monkeypatch):
    """Row ``t * n + c`` of the ``map_trials`` chunks is client ``c`` of
    ``n`` dense rows rotated under ``derive_seed(master_seed, t * n + c)``,
    bit for bit, and ``fn`` sees those seeds; the trials split into several
    chunks (the last one short) run on two threads."""
    budget = 1 << 12
    monkeypatch.setattr(core, "TRIAL_CHUNK_ELEMS", budget)
    step = max(1, budget // (n * d) // TRIAL_BLOCK) * TRIAL_BLOCK
    trials = 2 * step + 3
    xs = np.random.default_rng(d + n).standard_normal((n, d))
    chunks = list(map_trials(xs, layers, trials, 7, lambda y, seeds: (y, seeds), threads=2))
    assert len(chunks) == 3
    rows = np.concatenate([y for y, _ in chunks])
    seeds = np.concatenate([s for _, s in chunks])
    assert rows.shape == (trials * n, d)
    for r, row in enumerate(rows):
        seed = derive_seed(7, r)
        assert int(seeds[r]) == seed
        assert row.tobytes() == rotate_many(xs[r % n], layers, [seed])[0].tobytes()


@pytest.mark.parametrize("layers", range(MAX_LAYERS + 1))
@pytest.mark.parametrize("d", [4, 64, 4096])
def test_map_rotated_head_is_the_first_columns(d, layers):
    """``head=k`` gives the first ``k`` columns of the full rows, bit for
    bit and C-contiguous, for a dense and a sparse input."""
    dense, _ = unit_vector(np.random.default_rng(d).standard_normal(d))
    for xu in (dense, unit_vector(gen_adversarial("two_spike", d))[0]):
        full = map_rotated(xu, layers, 9, 3, lambda u: u)
        for k in (1, 2, 4):
            got = map_rotated(xu, layers, 9, 3, lambda u: u, head=k)
            assert got.tobytes() == np.ascontiguousarray(full[:, :k]).tobytes()
    for bad in (3, 2 * d):
        with pytest.raises(ValueError):
            map_rotated(dense, layers, 9, 3, lambda u: u, head=bad)


@st.composite
def _sparse_rows(draw):
    """``(n, d)`` rows with one or two nonzeros each, often of equal
    magnitude so that they cancel in the FWHT."""
    d = 1 << draw(st.integers(1, 10))
    rows = np.zeros((draw(st.integers(1, 3)), d))
    for row in rows:
        where = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=2,
                              unique=True))
        value = draw(st.sampled_from([1.0, -1.0, 0.5, 3.0, 1e-300]))
        for i in where:
            row[i] = draw(st.sampled_from([value, -value, 0.75 * value]))
    return rows


@settings(max_examples=150, deadline=None)
@given(_sparse_rows(), st.integers(1, MAX_LAYERS), st.integers(0, MASK64))
def test_sparse_first_layer_gathers_the_rotated_rows(xs, layers, master):
    """On rows with at most two nonzeros, the kernel gathers layer 1 from
    its table and matches :func:`rotate_many` on the tiled rows as values
    (an exact zero may differ in sign)."""
    assert core._first_layer_table(xs) is not None
    seeds = derive_seeds(master, 0, 8 * xs.shape[0])
    [got] = map_trials(xs, layers, 8, master, lambda y, s: y)
    assert got.flags.c_contiguous
    assert np.array_equal(got, rotate_many(np.tile(xs, (8, 1)), layers, seeds))


@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("name", ["one_hot", "two_spike"])
def test_sparse_first_layer_keeps_the_bytes_of_the_adversarial_inputs(name, layers):
    x = gen_adversarial(name, 4096)
    seeds = derive_seeds(11, 0, 64)
    [got] = map_trials(x[None], layers, 64, 11, lambda y, s: y)
    assert got.tobytes() == rotate_many(x, layers, seeds).tobytes()


def _head_rows(n, d):
    """``n`` rows cycling through three kinds: +0 and -0 between Gaussians,
    +/-1, and Gaussians whose second half cancels the first exactly."""
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((n, d))
    rows[0::3, ::2] = 0.0
    rows[0::3, 1::4] = -0.0
    rows[1::3] = np.where(rng.random(d) < 0.5, 1.0, -1.0)
    half = d // 2
    rows[2::3, half:2 * half] = -rows[2::3, :half]
    return rows


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_fwht_head_matches_the_full_transform_bit_for_bit(k):
    """Up to d = 2^17, where one row is wider than a row block; besides 3
    rows, one more row than a block holds, so the last block is ragged."""
    for log_d in range(k.bit_length() - 1, 18):
        d = 1 << log_d
        for n in (3, FWHT_BLOCK_ELEMS // d + 1):
            v = _head_rows(n, d)
            want = np.ascontiguousarray(fwht(v, normalize=True)[:, :k])
            got = core._fwht_head(v.copy(), k)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_encoders_and_transforms_never_use_the_first_layer_table(monkeypatch, capsys):
    """With the table builder broken, every rotation outside the Monte
    Carlo chunk functions still runs on a one-hot input, and those chunk
    functions are the ones that reach it."""
    from rotquant import bsq, cli, drive, vq

    def broken(xs):
        raise AssertionError("first-layer table built")

    monkeypatch.setattr(core, "_first_layer_table", broken)
    d, x = 64, gen_adversarial("one_hot", 64)
    spec = RotationSpec(d, 2, 5)
    apply_rotation(x, spec)
    rotate_many(x, 3, [1, 2])
    core.rotate_normalized(x, spec)
    for mode in drive.MODES:
        drive.drive_decode(drive.drive_encode(x, spec, mode))
    bsq.bsq_decode(bsq.bsq_encode(x, spec, bsq.BsqConfig(2, 0.01), noise_seed=1))
    cb = vq.train_gaussian_codebook(4, 8, 1, n_samples=1000)
    vq.vq_decode(*vq.vq_encode(x, spec, cb), spec, cb)
    assert cli.main(["transform", "--gen", "one_hot", "--d", "64"]) == 0
    capsys.readouterr()
    for estimate in (lambda: map_rotated(x, 2, 4, 0, np.ravel),
                     lambda: drive.dme_simulate(x[None], spec, "biased", 4),
                     lambda: vq.conditional_cov_trials(x, 0, 1, 3, 4)):
        with pytest.raises(AssertionError, match="first-layer table built"):
            estimate()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_ordered_yields_in_job_order_with_few_jobs_in_flight(threads):
    """Results come in job order however the jobs finish, and a slow
    consumer never has more than ``2 * threads`` jobs started and not yet
    consumed."""
    lock = threading.Lock()
    started, consumed, in_flight = [0], [0], []

    def job(i):
        with lock:
            started[0] += 1
            in_flight.append(started[0] - consumed[0])
        time.sleep(0.002 * (i % 3))  # later jobs often finish first
        return i

    got = []
    for result in run_ordered(range(40), job, threads):
        time.sleep(0.003)
        with lock:
            consumed[0] += 1
        got.append(result)
    assert got == list(range(40))
    assert max(in_flight) <= 2 * threads
    assert max(in_flight) >= min(threads, 2)  # the pool did run jobs together


def test_mean_se_is_the_ddof1_standard_error():
    s = np.random.default_rng(3).standard_normal(1001)
    mean, se = mean_se(s)
    assert mean == float(np.mean(s))
    assert se == float(np.std(s, ddof=1) / math.sqrt(s.size))
    assert mean_se([2.0, 2.0]) == (2.0, 0.0)


def test_unit_vector():
    x = np.array([3.0, 0.0, -4.0, 0.0])
    xu, norm = unit_vector(x)
    assert norm == 5.0 and type(norm) is float
    assert xu.tolist() == [0.6, 0.0, -0.8, 0.0]
    # |x|^2 overflows although every entry is finite
    for bad in (np.zeros(4), [1.0, np.nan], [1.0, np.inf], [-np.inf, 1.0],
                np.full(4, 1e200)):
        with pytest.raises(ValueError, match="input must be finite and non-zero"):
            unit_vector(bad)
    with pytest.raises(ValueError, match="1-d array: x has shape"):
        unit_vector(np.ones((2, 2)))
