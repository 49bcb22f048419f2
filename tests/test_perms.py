import random

import pytest
from hypothesis import given, strategies as st

from permlab.perms import (
    all_perms,
    compose,
    extend,
    identity,
    inverse,
    is_perm,
    is_simple,
    join,
    lehmer_rank,
    lehmer_unrank,
    lex_partition,
    match_aligned,
    parse_perm,
    random_perm,
    random_simple,
    swap_perm,
    vec,
)

perm_of = lambda m: st.permutations(range(1, m + 1)).map(tuple)


def format_perm(p):
    """The text parse_perm reads back as p."""
    return " ".join(str(v) for v in p)


def check_partition(P, m):
    """Raise ValueError unless the groups of P cover [m] exactly once."""
    seen = sorted(x for grp in P for x in grp)
    if seen != list(range(1, m + 1)):
        raise ValueError("groups do not cover [m] exactly")


def test_compose_convention():
    # g applies first: (f o g)(x) = f(g(x))
    assert compose((2, 3, 1), (1, 3, 2)) == (2, 1, 3)


def test_compose_rejects_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


@given(perm_of(5), perm_of(5), perm_of(5))
def test_compose_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(perm_of(6))
def test_inverse_roundtrip(p):
    assert compose(p, inverse(p)) == identity(6)
    assert compose(inverse(p), p) == identity(6)


def test_is_perm():
    assert is_perm((3, 1, 2))
    assert not is_perm((1, 1, 2))
    assert not is_perm((0, 1, 2))


def test_parse_format_roundtrip():
    p = (2, 4, 1, 3)
    assert parse_perm(format_perm(p)) == p
    assert parse_perm("2 4 1 3") == p


def test_lex_partition():
    assert lex_partition(6, 2) == ((1, 2), (3, 4), (5, 6))
    check_partition(lex_partition(12, 4), 12)


def test_is_simple():
    P = lex_partition(4, 2)
    assert is_simple((2, 1, 4, 3), P)       # maps {1,2}->{1,2}, {3,4}->{3,4}
    assert not is_simple((3, 1, 4, 2), P)


@given(st.integers(0, 2**32))
def test_random_simple_is_simple(seed):
    rng = random.Random(seed)
    P = ((1, 4), (2, 3), (5, 6))
    sigma = random_simple(P, rng)
    assert is_simple(sigma, P)


def test_vec_join_roundtrip():
    rho = (2, 1, 4, 3, 6, 5)
    gamma = vec(rho, 2)
    assert gamma == ((2, 1), (2, 1), (2, 1))
    assert join(gamma) == rho


def test_vec_rejects_non_simple():
    with pytest.raises(ValueError):
        vec((3, 1, 4, 2), 2)


@given(st.integers(0, 10**6))
def test_vec_formula(seed):
    rng = random.Random(seed)
    b, g = 3, 4
    P = lex_partition(b * g, b)
    rho = random_simple(P, rng)
    gamma = vec(rho, b)
    for i in range(1, g + 1):
        for j in range(1, b + 1):
            assert gamma[i - 1][j - 1] == rho[(i - 1) * b + j - 1] - (i - 1) * b


def test_match_aligned_examples():
    assert match_aligned([(1, 1), (2, 3)], 6) == (1, 3, 2, 4, 5, 6)
    assert match_aligned([(4, 1), (6, 2)], 6) == (3, 4, 5, 1, 6, 2)
    assert match_aligned([], 4) == (1, 2, 3, 4)


def test_match_aligned_rejects_collision():
    with pytest.raises(ValueError):
        match_aligned([(1, 2), (3, 2)], 4)


@given(st.integers(0, 10**6))
def test_match_aligned_is_lex_least(seed):
    # among all permutations honoring the pairs, the result compares smallest
    rng = random.Random(seed)
    m = 5
    us = rng.sample(range(1, m + 1), 2)
    vs = rng.sample(range(1, m + 1), 2)
    pairs = list(zip(us, vs))
    got = match_aligned(pairs, m)
    best = min(
        p for p in all_perms(m) if all(p[u - 1] == v for u, v in pairs)
    )
    assert got == best


def test_extend_formula():
    sigma = (2, 1, 3)
    e = extend(sigma, 2)
    # block x lands on block sigma(x), offsets preserved
    assert e == (3, 4, 1, 2, 5, 6)
    for x in range(1, 4):
        for j in range(1, 3):
            assert e[(x - 1) * 2 + j - 1] == (sigma[x - 1] - 1) * 2 + j


@given(perm_of(4), perm_of(4))
def test_extend_is_homomorphism(s1, s2):
    assert extend(compose(s1, s2), 3) == compose(extend(s1, 3), extend(s2, 3))


def test_swap_perm_examples():
    assert swap_perm(((1, 3), (2, 4))) == (1, 3, 2, 4)
    assert swap_perm(((1, 4), (2, 3))) == (1, 3, 4, 2)
    assert swap_perm(lex_partition(8, 2)) == identity(8)


def test_swap_conjugation_makes_simple():
    # conjugating by swap turns a P-simple map into a lex-simple one
    P = ((1, 3), (2, 4))
    rho = (3, 4, 1, 2)  # P-simple: {1,3}->{3,1}? check: rho(1)=3, rho(3)=1 ok; rho(2)=4, rho(4)=2 ok
    assert is_simple(rho, P)
    s = swap_perm(P)
    conj = compose(s, compose(rho, inverse(s)))
    assert conj == (2, 1, 4, 3)
    assert is_simple(conj, lex_partition(4, 2))


@given(st.integers(0, 10**6))
def test_swap_conjugation_property(seed):
    rng = random.Random(seed)
    m, b = 8, 2
    groups = rng.sample(range(1, m + 1), m)
    P = tuple(tuple(sorted(groups[i * b:(i + 1) * b])) for i in range(m // b))
    rho = random_simple(P, rng)
    s = swap_perm(P)
    conj = compose(s, compose(rho, inverse(s)))
    assert is_simple(conj, lex_partition(m, b))
    # and conjugating back recovers rho
    assert compose(inverse(s), compose(conj, s)) == rho


def test_lehmer_roundtrip():
    for rank, p in enumerate(all_perms(4)):
        assert lehmer_rank(p) == rank
        assert lehmer_unrank(rank, 4) == p


@pytest.mark.parametrize("rank, m", [(2, 2), (3, 2), (-1, 2), (24, 4), (-25, 4), (1, 0)])
def test_lehmer_unrank_rejects_ranks_outside_the_range(rank, m):
    with pytest.raises(ValueError, match=rf"^rank {rank} outside \[0, {m}!\)$"):
        lehmer_unrank(rank, m)


def test_all_perms_count():
    assert len(list(all_perms(4))) == 24
