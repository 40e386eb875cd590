import math

import numpy as np
import pytest

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
    return outs


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
