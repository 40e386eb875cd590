import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotquant import rng
from rotquant.rng import MASK64, Xoshiro256pp, derive_seed, derive_seeds, mix64, splitmix64

# First four outputs of the SplitMix64 sequence for state 0 (published
# reference sequence for the standard constants).
SPLITMIX_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK64


def _reference_xoshiro_stream(key, n):
    """Scalar xoshiro256++ transcribed independently from the published
    algorithm; seeds from SplitMix64 like the library contract says."""
    return _reference_xoshiro(key, n)[0]


def _reference_xoshiro(key, n):
    """The first ``n`` words of stream ``key`` and the state after them."""
    s = []
    state = key & MASK64
    for _ in range(4):
        state, out = splitmix64(state)
        s.append(out)
    outs = []
    for _ in range(n):
        outs.append((_rotl((s[0] + s[3]) & MASK64, 23) + s[0]) & MASK64)
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
    return outs, s


def test_splitmix64_reference_vector():
    state = 0
    outs = []
    for _ in range(4):
        state, word = splitmix64(state)
        outs.append(word)
    assert outs == SPLITMIX_SEED0


def test_mix64_is_first_output():
    for x in (0, 1, 12345, MASK64):
        assert mix64(x) == splitmix64(x)[1]


def test_derive_seed_definition_and_wraparound():
    assert derive_seed(12345, 7) == mix64(12345 + 7)
    # index pushes the state past 2^64: wrapping add, not promotion
    assert derive_seed(MASK64, 1) == mix64(0)
    with pytest.raises(ValueError):
        derive_seed(1, -1)


@pytest.mark.parametrize("master", [-1, 1 << 64, 1.5, np.array([2.0])])
def test_derive_rejects_masters_outside_64_bits(master):
    # a wrapped or truncated master would silently alias another seed
    with pytest.raises(ValueError, match="master seed"):
        derive_seed(master, 0)
    with pytest.raises(ValueError, match="master seed"):
        derive_seeds(master, 0, 4)


def test_derive_rejects_non_integer_indices():
    for index in (1.5, np.float64(2.0)):
        with pytest.raises(ValueError, match="index"):
            derive_seed(1, index)
    for start, count in ((0.5, 2), (0, 2.5), (-1, 2), (0, -1)):
        with pytest.raises(ValueError, match="start|count"):
            derive_seeds(1, start, count)


def test_derive_accepts_numpy_integer_masters():
    assert derive_seed(np.uint64(MASK64), 1) == derive_seed(MASK64, 1)
    assert np.array_equal(derive_seeds(np.int64(7), 0, 3), derive_seeds(7, 0, 3))


def test_derive_seeds_matches_scalar():
    got = derive_seeds(12345, 3, 50)
    want = [derive_seed(12345, i) for i in range(3, 53)]
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == want


@pytest.mark.parametrize("key", [0, 1, 12345, 0xDEADBEEFCAFEBABE])
def test_xoshiro_matches_reference(key):
    lib = Xoshiro256pp([key]).words(20)[0]
    ref = _reference_xoshiro_stream(key, 20)
    assert [int(v) for v in lib] == ref


def _msb_first_signs(words, count):
    """+/-1 per output bit, most-significant bit of each word first."""
    return [1.0 if (w >> (63 - b)) & 1 == 0 else -1.0 for w in words for b in range(64)][:count]


KEYS = [0, 1, 12345, 0xDEADBEEFCAFEBABE]


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000])
def test_words_single_and_batch_match_reference(count):
    for key in KEYS:
        single = Xoshiro256pp([key]).words(count)
        assert single.shape == (1, count) and single.dtype == np.uint64
        assert [int(v) for v in single[0]] == _reference_xoshiro_stream(key, count)
    batch = Xoshiro256pp(KEYS).words(count)
    assert batch.shape == (len(KEYS), count) and batch.dtype == np.uint64
    for row, key in zip(batch, KEYS):
        assert [int(v) for v in row] == _reference_xoshiro_stream(key, count)


@pytest.mark.parametrize("keys", [[7], [7, 8, 9]])
def test_split_calls_continue_one_stream(keys):
    whole = Xoshiro256pp(keys).words(11)
    gen = Xoshiro256pp(keys)
    assert np.array_equal(np.hstack([gen.words(3), gen.words(5)]), whole[:, :8])
    gen = Xoshiro256pp(keys)
    assert np.array_equal(gen.words(8), whole[:, :8])
    signs = gen.sign_values(130)
    for row, ref_words in zip(signs, whole[:, 8:]):
        assert row.tolist() == _msb_first_signs([int(w) for w in ref_words], 130)


def test_xoshiro_batch_streams_are_independent_of_batching():
    keys = [int(k) for k in derive_seeds(3, 0, 17)]
    batch = Xoshiro256pp(keys).words(200)
    for row, key in enumerate(keys):
        single = Xoshiro256pp([key]).words(200)[0]
        assert np.array_equal(batch[row], single)


@pytest.mark.parametrize("count", [1, 63, 64, 65, 4097])
@pytest.mark.parametrize("keys", [[99], [99, 100, 101]])
def test_sign_values_match_shift_reference(count, keys):
    signs = Xoshiro256pp(keys).sign_values(count)
    assert signs.dtype == np.float64 and signs.shape == (len(keys), count)
    for row, key in zip(signs, keys):
        words = _reference_xoshiro_stream(key, (count + 63) // 64)
        assert row.tolist() == _msb_first_signs(words, count)


def test_sign_values_msb_first():
    key = 99
    word = _reference_xoshiro_stream(key, 1)[0]
    signs = Xoshiro256pp([key]).sign_values(64)[0]
    expected = [1.0 if (word >> (63 - i)) & 1 == 0 else -1.0 for i in range(64)]
    assert signs.tolist() == expected


def test_sign_values_cross_word_boundary():
    words = _reference_xoshiro_stream(4242, 2)
    signs = Xoshiro256pp([4242]).sign_values(70)[0]
    assert signs[64] == (1.0 if (words[1] >> 63) & 1 == 0 else -1.0)
    assert signs.shape == (70,)
    assert set(np.unique(signs)) <= {-1.0, 1.0}


def test_uniforms_formula_and_range():
    words = _reference_xoshiro_stream(321, 6)
    u = Xoshiro256pp([321]).uniforms(6)[0]
    expected = [(w >> 11) * 2.0**-53 for w in words]
    assert u.tolist() == expected
    assert np.all((u >= 0.0) & (u < 1.0))


def test_gaussians_formula():
    words = _reference_xoshiro_stream(77, 4)
    g = Xoshiro256pp([77]).gaussians(4)[0]
    u1 = [((w >> 11) + 1) * 2.0**-53 for w in words[0::2]]
    u2 = [(w >> 11) * 2.0**-53 for w in words[1::2]]
    want = []
    for a, b in zip(u1, u2):
        r = math.sqrt(-2.0 * math.log(a))
        want.extend([r * math.cos(2.0 * math.pi * b), r * math.sin(2.0 * math.pi * b)])
    assert np.allclose(g, want, rtol=0, atol=0)
    assert np.all(np.isfinite(g))


def test_gaussians_odd_count():
    g = Xoshiro256pp([8]).gaussians(5)
    assert g.shape == (1, 5)


def _two_gaussian_draws(n_streams):
    gen = Xoshiro256pp(derive_seeds(5, 0, n_streams))
    return gen.gaussians(5), gen.gaussians(2)


@pytest.mark.parametrize("block", [1, 1000, 4096, 1 << 14, 12345])
def test_gaussians_do_not_depend_on_the_stream_block(monkeypatch, block):
    """Blocks of streams draw the same values, and leave every stream where
    one unblocked draw does (the second call reads on from there)."""
    monkeypatch.setattr(rng, "_GAUSSIAN_BLOCK_STREAMS", 1 << 20)
    want = _two_gaussian_draws(20001)
    monkeypatch.setattr(rng, "_GAUSSIAN_BLOCK_STREAMS", block)
    got = _two_gaussian_draws(20001 if block > 1 else 3)
    for g, w in zip(got, want):
        assert np.array_equal(g, w[:len(g)])


def test_gaussian_moments_sane():
    g = Xoshiro256pp(derive_seeds(0, 0, 64)).gaussians(1024).ravel()
    n = g.size
    assert abs(g.mean()) < 4.0 / math.sqrt(n)
    assert abs(g.std() - 1.0) < 4.0 / math.sqrt(n)


def test_streams_deterministic_and_distinct():
    a = Xoshiro256pp([1001]).words(12)
    b = Xoshiro256pp([1001]).words(12)
    c = Xoshiro256pp([1002]).words(12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bad_constructor_args():
    with pytest.raises(ValueError):
        Xoshiro256pp([])
    # A bare uint64 cast truncates non-integers: [2.9] would draw key 2's stream.
    for bad in ([2.9], np.array([2.0]), [-1], [1 << 64], np.array([True])):
        with pytest.raises(ValueError, match="keys must be unsigned 64-bit integers"):
            Xoshiro256pp(bad)
    with pytest.raises(ValueError):
        Xoshiro256pp([1]).words(-1)


@pytest.mark.parametrize("count", [2.5, np.float64(3.0), "3", None, -1])
@pytest.mark.parametrize("keys", [[1], [1, 2]])
def test_words_rejects_counts_that_are_not_non_negative_integers(keys, count):
    with pytest.raises(ValueError, match="count"):
        Xoshiro256pp(keys).words(count)


def test_words_accepts_numpy_integer_counts():
    assert np.array_equal(Xoshiro256pp([5]).words(np.int64(700)), Xoshiro256pp([5]).words(700))


@pytest.mark.parametrize("key", [0, 1, 2**63 + 11, MASK64])
def test_one_key_fill_matches_the_batch_fill(key):
    one = Xoshiro256pp([key])._state
    assert one.shape == (4, 1) and one.dtype == np.uint64 and one.flags.c_contiguous
    assert np.array_equal(one[:, 0], Xoshiro256pp([key, 12345])._state[:, 0])
    keys = [int(k) for k in derive_seeds(9, 0, 50)] + [key]
    assert np.array_equal(one[:, 0], Xoshiro256pp(keys)._state[:, -1])
    assert np.array_equal(one, Xoshiro256pp(key)._state)
    assert np.array_equal(one, Xoshiro256pp(np.array([key], dtype=np.uint64))._state)


# --- the lanes path for long single streams -----------------------------------

LANES = rng._LANES_MIN_WORDS


def test_long_single_requests_take_the_lanes_path(monkeypatch):
    """Below the crossover the loop draws the words, from it on the lanes."""
    loop_counts = []
    loop = Xoshiro256pp._one_stream
    monkeypatch.setattr(Xoshiro256pp, "_one_stream",
                        lambda self, count: loop_counts.append(count) or loop(self, count))
    gen = Xoshiro256pp([3])
    gen.words(LANES - 1)
    gen.words(LANES)
    gen.words(3 * LANES + 5)
    assert loop_counts == [LANES - 1]


@settings(max_examples=40, deadline=None)
@given(key=st.integers(0, MASK64),
       counts=st.lists(st.one_of(
           st.sampled_from([0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES, 3 * LANES]),
           st.integers(0, 3 * LANES)), min_size=1, max_size=5))
def test_split_calls_across_both_paths_match_the_reference(key, counts):
    gen = Xoshiro256pp([key])
    got = np.concatenate([gen.words(c)[0] for c in counts])
    want, state = _reference_xoshiro(key, sum(counts))
    assert [int(w) for w in got] == want
    assert gen._state[:, 0].tolist() == state


def test_lanes_match_the_loop_on_a_long_stream():
    n = 1 << 17
    lanes, loop = Xoshiro256pp([2024]), Xoshiro256pp([2024])
    assert np.array_equal(lanes.words(n)[0], np.frombuffer(loop._one_stream(n), dtype=np.uint64))
    assert np.array_equal(lanes._state, loop._state)
    assert np.array_equal(lanes.words(3), loop.words(3))


def test_threads_building_the_jump_tables_get_the_loop_words():
    """Threads that race to build the jump tables from an empty cache (a
    wrong power would change their words) still draw the loop's words."""
    rng._jump_table.cache_clear()
    keys = [11, 12, 13, 14]
    want = [np.frombuffer(Xoshiro256pp([k])._one_stream(4096), dtype=np.uint64) for k in keys]
    got = [None] * len(keys)
    barrier = threading.Barrier(len(keys), timeout=60)

    def draw(i):
        barrier.wait()
        got[i] = Xoshiro256pp([keys[i]]).words(4096)[0]

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(keys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert g is not None and np.array_equal(g, w)
    # Each cached power is the square of the one before it.
    states = np.array([[int(k) for k in derive_seeds(4, 4 * i, 4)] for i in range(8)],
                      dtype=np.uint64)
    assert rng._jump_table.cache_info().currsize >= 8
    tables = [rng._jump_table(k) for k in range(8)]
    assert not any(t.flags.writeable for t in tables)
    for lower, upper in zip(tables, tables[1:]):
        assert np.array_equal(rng._jump(upper, states),
                              rng._jump(lower, rng._jump(lower, states)))
