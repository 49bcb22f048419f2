import random

import pytest
from hypothesis import given, settings, strategies as st

from permlab import seeds
from permlab.seeds import randbelow_many, shuffled_range


def ref_shuffle(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def window_edges():
    """Sizes whose first window of 2**(4 + k//2) words, k = n.bit_length(),
    holds exactly as many words as draws are left at that bit length, and
    the sizes either side."""
    sizes = []
    for k in range(10, 18):
        last = (1 << (k - 1)) + (1 << (4 + k // 2)) - 1
        sizes += [last - 1, last, last + 1]
    return sizes


SIZES = [*range(70), *(2**k + d for k in range(7, 18) for d in (-1, 0, 1)), *window_edges(), 568_432]
SEEDS = [0, 1, -3, 2**70 + 11]


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_range_matches_random_shuffle(seed):
    for n in SIZES:
        got = shuffled_range(n, seed)
        assert got.dtype == "int32" and got.tolist() == ref_shuffle(n, seed), n


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 3000), st.integers(-(2**80), 2**80))
def test_shuffled_range_matches_random_shuffle_any_seed(n, seed):
    assert shuffled_range(n, seed).tolist() == ref_shuffle(n, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_range_across_small_blocks(seed, monkeypatch):
    # the pointer doubling and the gather of what each step held run a
    # block of graphs.BLOCK entries at a time; at 7 they cross blocks at small n
    monkeypatch.setattr("permlab.graphs.BLOCK", 7)
    for n in (*range(30), 64, 65, 200, 1001):
        assert shuffled_range(n, seed).tolist() == ref_shuffle(n, seed), n


def test_shuffled_range_refuses_sizes_past_int32():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        shuffled_range(2**31, 0)
    with pytest.raises(ValueError):
        shuffled_range(-1, 0)


def bound_lists():
    """Bounds at every kind of rejection rate: 1, powers of two, 2**j +- 1,
    the b-element shuffles and r-element pool samples that the generator's
    cores draw, and mixtures of these."""
    shuffles = [list(range(b, 1, -1)) * 40 for b in range(2, 7)]
    pools = [list(range(r, r // 2, -1)) * 3 for r in (2, 4, 6, 8, 10, 16, 30, 64, 1024)]
    return [
        [], [1], [1] * 50, [2**j for j in range(32)] * 3,
        [2**j + d for j in range(2, 32) for d in (-1, 1) if 2**j + d < 2**32],
        list(range(1, 300)), [2**32 - 1, 2**31 + 1, 3, 1],
        *shuffles, *pools, [x for b in shuffles for x in b[:12] + [1, 1]] + pools[-1],
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_many_matches_random_draw_for_draw(seed):
    for bounds in bound_lists():
        want, got = random.Random(seed), random.Random(seed)
        want.random(), got.random()   # mid-block starting states too
        draws = randbelow_many(bounds, got)
        assert draws.tolist() == [want._randbelow(n) for n in bounds], bounds[:6]
        assert got.getstate() == want.getstate()


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 2**32 - 1), max_size=200), st.integers(-(2**80), 2**80))
def test_randbelow_many_matches_random_any_bounds(bounds, seed):
    want, got = random.Random(seed), random.Random(seed)
    assert randbelow_many(bounds, got).tolist() == [want._randbelow(n) for n in bounds]
    assert got.random() == want.random()


def test_randbelow_many_reads_more_words_when_short(monkeypatch):
    # words read eight at a time: every estimate falls short, so the
    # decoder has to read more and decide again
    read = seeds._words
    monkeypatch.setattr(seeds, "_words", lambda rng, n: read(rng, min(n, 8)))
    bounds = [x for b in range(2, 7) for x in range(b, 1, -1)] * 20 + [1] * 30
    want, got = random.Random(5), random.Random(5)
    assert randbelow_many(bounds, got).tolist() == [want._randbelow(n) for n in bounds]
    assert got.getstate() == want.getstate()


@pytest.mark.parametrize("bounds", [[0], [3, -1], [2**32]])
def test_randbelow_many_refuses_bounds_outside_its_range(bounds):
    with pytest.raises(ValueError, match="bounds in"):
        randbelow_many(bounds, random.Random(0))
