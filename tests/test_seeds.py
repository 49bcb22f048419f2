import random

import pytest
from hypothesis import given, settings, strategies as st

from permlab.seeds import shuffled_range


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


def test_shuffled_range_refuses_sizes_past_int32():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        shuffled_range(2**31, 0)
    with pytest.raises(ValueError):
        shuffled_range(-1, 0)
