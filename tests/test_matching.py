import random
import re
import sys
import tracemalloc
from array import array

import numpy as np
import pytest

from permlab.gen import default_params, gen_general, vertex_count
from permlab.graphs import basic
from permlab.matching import (
    BipartiteInstance,
    bipartite_of,
    dichotomy_size,
    max_matching,
    sigma_cross,
    sigma_eq,
)
from permlab.perms import identity
from test_columnar import adjacency, instance_of


def brute_max_matching(inst):
    # exhaustive search over left-vertex assignments, fine for tiny instances
    best = 0
    adj = adjacency(inst)

    def go(i, used, count):
        nonlocal best
        best = max(best, count)
        if i == len(adj):
            return
        # upper bound prune
        if count + (len(adj) - i) <= best:
            return
        go(i + 1, used, count)
        for v in adj[i]:
            if v not in used:
                used.add(v)
                go(i + 1, used, count + 1)
                used.remove(v)

    go(0, set(), 0)
    return best


def test_sigma_helpers():
    assert sigma_eq(4) == (1, 2, 3, 4)
    assert sigma_cross(4) == (3, 4, 1, 2)
    assert sigma_cross(6) == (4, 5, 6, 1, 2, 3)
    with pytest.raises(ValueError):
        sigma_cross(5)


def test_hand_instance_identity():
    # two-layer identity graph on 2 wires: n=4 internal vertices, m=2
    g = basic(identity(2))
    inst = bipartite_of(g, 2)
    assert inst.n == 4 and inst.half == 1
    assert inst.side == 5
    assert inst.edge_count == len(g.edges) + inst.n + 2
    res = max_matching(inst)
    assert res.certified
    assert res.size == inst.n + 1  # identity realizes sigma_eq at m=2
    assert res.size == brute_max_matching(inst)


def test_hand_instance_cross():
    g = basic((2, 1))
    inst = bipartite_of(g, 2)
    res = max_matching(inst)
    assert res.certified
    assert res.size == inst.n  # the swap is sigma_cross at m=2
    assert res.size == brute_max_matching(inst)


def test_k33_direct():
    inst = instance_of([[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    res = max_matching(inst)
    assert res.certified and res.size == 3


def test_augmenting_needed():
    # greedy-style seeding can trap; HK must still reach the optimum
    inst = instance_of([[0, 1], [0], [1, 2], [2, 3]])
    res = max_matching(inst)
    assert res.certified and res.size == 4
    assert res.size == brute_max_matching(inst)


def test_cover_certifies_random_instances():
    rng = random.Random(0)
    for _ in range(50):
        side = rng.randrange(2, 9)
        adj = [
            sorted(rng.sample(range(side), rng.randrange(0, side)))
            for _ in range(side)
        ]
        inst = instance_of(adj)
        res = max_matching(inst)
        assert res.certified
        assert res.size == brute_max_matching(inst)


def test_generated_instances_match_oracle():
    params = default_params(4, 2, k=1, p=1)
    rng = random.Random(1)
    for sigma in (sigma_eq(4), sigma_cross(4)):
        g = gen_general(sigma, params, rng)
        inst = bipartite_of(g, 4)
        res = max_matching(inst)
        assert res.certified
        want = inst.n + 2 if sigma == sigma_eq(4) else inst.n
        assert res.size == want


def test_dichotomy_size():
    params = default_params(4, 2, k=2, p=1)
    n = vertex_count(params, general=True)
    assert n == 344
    assert dichotomy_size(sigma_eq(4), n) == 346 and dichotomy_size(sigma_cross(4), n) == 344
    rng = random.Random(2)
    for sigma, want in ((sigma_eq(4), 346), (sigma_cross(4), 344)):
        for _ in range(3):
            res = max_matching(bipartite_of(gen_general(sigma, params, rng), 4))
            assert res.certified and res.size == want
    # the dichotomy says nothing of any other sigma, nor at odd m
    assert dichotomy_size((2, 1, 3, 4), n) is None
    assert dichotomy_size((1, 3, 2, 4), n) is None
    assert dichotomy_size(identity(3), n) is None
    assert dichotomy_size((2, 3, 1), n) is None


def test_matching_is_valid_matching():
    g = basic(identity(4))
    inst = bipartite_of(g, 4)
    res = max_matching(inst)
    rights = [v for v in res.match_left if v != -1]
    assert len(rights) == len(set(rights))
    for u, v in enumerate(res.match_left):
        if v != -1:
            assert v in adjacency(inst)[u]


def test_long_augmenting_path():
    # the only augmenting path runs through 100,000 seeded copy pairs: free
    # left vertex n sees right 0, left i sees rights i and i + 1, right n is free
    n = 100_000
    adj = [[i, i + 1] for i in range(n)] + [[0]]
    res = max_matching(instance_of(adj, half=1, canonical=range(n)))
    assert res.certified and res.size == n + 1
    assert res.match_left.tolist() == [*range(1, n + 1), 0]


def test_max_matching_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = gen_general(sigma_eq(4), default_params(4, 2, k=1, p=1), random.Random(1))
    res = max_matching(bipartite_of(g, 4))
    assert res.certified and res.size == g.vertex_count + 2


@pytest.mark.parametrize("left, right, canonical, message", [
    ([0, 3], [0, 1], [], "edge 1 (3, 1) has an end outside [0, 3)"),
    ([0, 1], [1, 5], [], "edge 1 (1, 5) has an end outside [0, 3)"),
    ([0, -1], [0, 0], [], "edge 1 (-1, 0) has an end outside [0, 3)"),
    ([-1, 7], [9, 0], [], "edge 0 (-1, 9) has an end outside [0, 3)"),
    # would wrap to a valid-looking vertex if cast to int32 unchecked
    (np.array([0, 2**31], dtype=np.int64), [0, 0], [], "edge 1 (2147483648, 0)"),
    ([0, 1], np.array([0, 2**31 + 1], dtype=np.int64), [], "edge 1 (1, 2147483649)"),
    ([0, 1], [0, 1], [0, 2], "canonical vertex 2 is outside [0, 2)"),   # a terminal
    ([0, 1], [0, 1], [-1], "canonical vertex -1 is outside [0, 2)"),
], ids=["left", "right", "negative", "first", "left_2**31", "right_2**31",
        "canonical_terminal", "canonical_negative"])
def test_from_edges_rejects_out_of_range_vertices(left, right, canonical, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BipartiteInstance.from_edges(2, 1, left, right, canonical)


@pytest.mark.parametrize("sigma", [sigma_eq(128), sigma_cross(128)], ids=["id", "cross"])
def test_max_matching_memory_per_vertex_and_edge(sigma):
    # the oracle's own allocations, its result included, over the instance it
    # reads: state in C int arrays, not in lists of int objects
    g = gen_general(sigma, default_params(128, 4, k=2, p=1), random.Random(3))
    inst = bipartite_of(g, 128)
    tracemalloc.start()
    try:
        res = max_matching(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certified and res.size == dichotomy_size(sigma, inst.n)
    assert isinstance(res.match_left, array) and res.match_left.typecode == "i"
    assert peak <= 24 * (inst.side + inst.edge_count)
