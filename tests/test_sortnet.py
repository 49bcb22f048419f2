import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlab.perms import compose, identity, inverse, is_simple, random_perm
from permlab.sortnet import (
    SorterNetwork,
    _merge_ops,
    _next_power,
    _schedule,
    build_sort_network,
    decompose,
    decompose_many,
    depth_bound,
)


def build_merge_network(m, b):
    """Reference: the network of b*b-wide sorters merging b sorted runs of
    length m/b that build_sort_network uses inside; m must be a power of b."""
    if b < 2:
        raise ValueError("b must be at least 2")
    if _next_power(b, m) != m:
        raise ValueError(f"m={m} is not a power of b={b}")
    return SorterNetwork(m, b * b, _schedule(_merge_ops(list(range(1, m + 1)), b), m))


def test_merge_single_sorter_at_b_squared():
    net = build_merge_network(16, 4)
    assert net.depth == 1
    assert net.layers[0] == (tuple(range(1, 17)),)


def test_merge_sorts_all_01_runs():
    # every 0-1 input consisting of b sorted runs, exhaustively
    for m, b in [(16, 2), (27, 3)]:
        net = build_merge_network(m, b)
        net.validate()
        rl = m // b
        for zs in product(range(rl + 1), repeat=b):
            vals = []
            for z in zs:
                vals.extend([0] * z + [1] * (rl - z))
            assert net.apply(vals) == sorted(vals)


def test_merge_rejects_nonpower():
    with pytest.raises(ValueError):
        build_merge_network(12, 2)


def test_merge_sorted_input_unchanged():
    net = build_merge_network(16, 2)
    assert net.apply(list(range(1, 17))) == list(range(1, 17))


def test_sort_single_sorter_when_m_fits():
    net = build_sort_network(5, 8)
    assert net.depth == 1


def test_sort_exhaustive_01_small():
    for m, b in [(8, 2), (9, 3), (8, 4)]:
        net = build_sort_network(m, b)
        net.validate()
        for x in range(1 << m):
            vals = [(x >> i) & 1 for i in range(m)]
            assert net.apply(vals) == sorted(vals)


def test_sort_random_perms_against_sorted_oracle():
    rng = random.Random(3)
    for m, b in [(12, 2), (16, 4), (27, 3)]:
        net = build_sort_network(m, b)
        for _ in range(50):
            p = list(random_perm(m, rng))
            assert net.apply(p) == sorted(p)


def test_measured_depths_frozen():
    # regression pins for the recurrence depth(m) = depth(m/q) + 2*log_q m - 3
    assert build_sort_network(16, 4).depth == 9
    assert build_sort_network(64, 4).depth == 25
    assert build_merge_network(16, 2).depth == 5


def test_depth_within_bound():
    for m, b in [(8, 2), (12, 2), (12, 4), (16, 4), (64, 4), (27, 3)]:
        net = build_sort_network(m, b)
        assert net.depth <= depth_bound(m, b)


def test_group_width_cap():
    for m, b in [(16, 2), (16, 4), (27, 3), (64, 4)]:
        build_sort_network(m, b).validate()


def test_decompose_identity():
    d = decompose(identity(8), 2)
    assert all(g == identity(8) for g in d.gammas)
    assert d.recompose() == identity(8)


def test_decompose_small_example():
    d = decompose((2, 1, 4, 3), 2)
    assert d.recompose() == (2, 1, 4, 3)
    for P, g in zip(d.partitions, d.gammas):
        assert is_simple(g, P)


def test_decompose_layer_count_matches_depth():
    net = build_sort_network(12, 4)
    d = decompose(random_perm(12, random.Random(0)), 4)
    assert len(d.gammas) == net.depth == len(d.partitions)


def test_sort_networks_are_built_once_per_size():
    for m, b in [(1, 2), (12, 2), (12, 4), (64, 4)]:
        assert build_sort_network(m, b) is build_sort_network(m, b)


def test_decompose_runs_on_the_cached_network():
    for m, b in [(12, 2), (16, 4), (27, 3)]:
        d = decompose(random_perm(m, random.Random(m)), b)
        assert d.partitions == tuple(reversed(build_sort_network(m, b).layers))


@settings(deadline=None, max_examples=60)
@given(st.permutations(range(1, 13)).map(tuple), st.sampled_from([2, 3, 4]))
def test_decompose_recompose_property(sigma, b):
    d = decompose(sigma, b)
    assert d.recompose() == sigma
    for P, g in zip(d.partitions, d.gammas):
        assert is_simple(g, P)
        assert sorted(x for grp in P for x in grp) == list(range(1, 13))


def ref_gammas(sigma, b):
    """decompose's gammas as a loop over the layers finds them: sort the
    values on each group's wires, and record where each wire's value went."""
    w, moves = tuple(sigma), []
    for layer in build_sort_network(len(sigma), b).layers:
        new = list(w)
        for grp in layer:
            for x, v in zip(grp, sorted(w[x - 1] for x in grp)):
                new[x - 1] = v
        moves.append(compose(inverse(tuple(new)), w))
        w = tuple(new)
    return tuple(reversed(moves))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([(2, 2), (9, 3), (12, 4), (16, 4), (17, 2), (25, 5)]).flatmap(
    lambda mb: st.tuples(st.just(mb[1]), st.lists(st.permutations(range(1, mb[0] + 1)), min_size=1, max_size=5))))
def test_decompose_many_matches_the_layer_loop(case):
    # every row of a batch is decomposed as on its own
    b, sigmas = case
    got = decompose_many(np.array(sigmas, dtype=np.int32), b)
    assert [tuple(map(tuple, g)) for g in got.tolist()] == [ref_gammas(s, b) for s in sigmas]
