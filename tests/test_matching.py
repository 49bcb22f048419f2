import random
import re
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permlab import matching
from permlab.gen import default_params, gen_general, vertex_count
from permlab.graphs import LayeredGraph, basic, path_labels, path_roots
from permlab.matching import (
    BipartiteInstance,
    bipartite_of,
    certified_size,
    dichotomy_size,
    matching_size,
    max_matching,
    sigma_cross,
    sigma_eq,
)
from permlab.perms import identity, random_perm
from test_columnar import (adjacency, adjacency_lists, instance_of, matching_lists, path_graphs,
                           ref_bipartite_adj, ref_max_matching)


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
    # the dichotomy says nothing of any other sigma, nor at odd m; a graph
    # of vertex-disjoint paths has one augmenting path per i <= m/2 with
    # sigma(i) <= m/2
    assert [matching_size(s, n) for s in ((2, 1, 3, 4), (1, 3, 2, 4), (3, 2, 1, 4))] == [346, 345, 345]
    assert matching_size(sigma_eq(4), n) == 346 and matching_size(sigma_cross(4), n) == 344
    assert matching_size(identity(3), n) is None
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
    # a seed pair must be an edge: (0, 0) is not, only (0, 1) and (1, 0) are
    ([0, 1], [1, 0], [0], "canonical vertex 0 has no copy edge (0, 0)"),
    ([0, 2], [0, 0], [0, 1], "canonical vertex 1 has no copy edge (1, 1)"),
    # no edges at all: seeding would certify a matching of size 2; the first in seed order
    ([], [], [1, 0], "canonical vertex 1 has no copy edge (1, 1)"),
], ids=["left", "right", "negative", "first", "left_2**31", "right_2**31",
        "canonical_terminal", "canonical_negative", "no_copy_edge", "second_no_copy_edge",
        "edgeless"])
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


def hopcroft_karp_only(inst):
    """max_matching with the path certificate declining, so by Hopcroft-Karp."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_path_matching", lambda inst: None)
        return max_matching(inst)


@pytest.mark.parametrize("m, b, p", [(8, 2, 1), (16, 4, 1), (8, 2, 2), (12, 3, 2)])
def test_path_certificate_equals_hopcroft_karp_on_generated_graphs(m, b, p):
    params = default_params(m, b, k=2, p=p)
    for sigma in (sigma_eq(m), sigma_cross(m), random_perm(m, random.Random(m + p))):
        g = gen_general(sigma, params, random.Random(5))
        inst = bipartite_of(g, m)
        res = max_matching(inst)
        # read off the paths: the CSR was never built
        assert "indices" not in inst.__dict__ and "indptr" not in inst.__dict__
        assert res.certified
        assert matching_lists(res) == matching_lists(hopcroft_karp_only(bipartite_of(g, m)))
        want = dichotomy_size(sigma, inst.n)
        assert want is None or res.size == want


@pytest.mark.parametrize("p", [1, 2])
def test_covers_are_int32_on_both_paths(p, monkeypatch):
    # blocks of 7 vertices, so a cover is gathered across many blocks
    monkeypatch.setattr(matching, "BLOCK", 7)
    m = 8
    for sigma in (sigma_eq(m), sigma_cross(m), random_perm(m, random.Random(p))):
        g = gen_general(sigma, default_params(m, 2, k=2, p=p), random.Random(5))
        inst = bipartite_of(g, m)
        want = ref_max_matching(inst.side, adjacency(inst), inst.canonical.tolist())
        paths = matching._path_matching(bipartite_of(g, m))
        assert paths is not None
        for res in paths, hopcroft_karp_only(inst):
            assert res.cover_left.dtype == res.cover_right.dtype == np.int32
            assert matching_lists(res) == want


@settings(deadline=None, max_examples=200)
@given(adjacency_lists())
@example(([[0, 1], [1], [0]], 1, [0, 1]))          # one free path through both seed pairs
@example(([[0], [1, 2], [0]], 1, [0, 1]))          # a path that augments
def test_path_certificate_equals_hopcroft_karp_on_any_instance(case):
    adj, half, canonical = case
    res = max_matching(instance_of(adj, half, canonical))
    hk = hopcroft_karp_only(instance_of(adj, half, canonical))
    assert matching_lists(res) == matching_lists(hk)
    assert matching_lists(res) == ref_max_matching(len(adj), adj, canonical)


def test_path_certificate_reads_examples():
    # both @example instances above take the path certificate
    for adj in ([[0, 1], [1], [0]], [[0], [1, 2], [0]]):
        res = matching._path_matching(instance_of(adj, 1, [0, 1]))
        assert res is not None
        assert matching_lists(res) == ref_max_matching(3, adj, [0, 1])


def test_long_path_certificate_and_its_degree_2_fallback():
    # the long augmenting path instance passes the degree test; one more edge
    # out of left 0 fails it, and Hopcroft-Karp finds the same matching
    n = 2_000
    adj = [[i, i + 1] for i in range(n)] + [[0]]
    inst = instance_of(adj, half=1, canonical=range(n))
    assert matching._path_matching(inst) is not None
    want = ref_max_matching(n + 1, adj, range(n))
    assert matching_lists(max_matching(inst)) == want and want[0] == n + 1
    adj[0].append(2)
    inst = instance_of(adj, half=1, canonical=range(n))
    assert matching._path_matching(inst) is None
    res = max_matching(inst)
    assert res.certified and matching_lists(res) == ref_max_matching(n + 1, adj, range(n))


def test_two_non_seed_edges_into_a_right_vertex_fall_back():
    # free terminals 1 and 2 both see right 0 only, left 0's seed partner
    adj = [[0], [0], [0]]
    inst = instance_of(adj, half=2, canonical=[0])
    assert matching._path_matching(inst) is None
    res = max_matching(inst)
    assert res.certified and matching_lists(res) == ref_max_matching(3, adj, [0])


def test_cyclic_seed_pairs_fall_back():
    # left 0 -> right 1 and left 1 -> right 0 close a cycle of seed pairs that
    # no free path enters; the free terminal 2 reaches the free right 2
    adj = [[0, 1], [1, 0], [2]]
    inst = instance_of(adj, half=1, canonical=[0, 1])
    assert matching._path_matching(inst) is None
    res = max_matching(inst)
    assert res.certified and res.size == 3
    assert matching_lists(res) == ref_max_matching(3, adj, [0, 1])


@pytest.mark.parametrize("up, want", [
    ([0], [0]),
    ([0, 0, 1, 2, 3], [0, 0, 0, 0, 0]),
    ([4, 0, 1, 2, 4, 5], [4, 4, 4, 4, 4, 5]),
], ids=["root", "chain", "two_paths"])
def test_path_roots(up, want):
    assert path_roots(np.array(up, dtype=np.int32)).tolist() == want


@pytest.mark.parametrize("length", [2, 3, 4], ids=["cycle_2", "cycle_3", "cycle_4"])
def test_path_matching_declines_labels_that_are_no_roots(length):
    # left i -> right i + 1 (mod length) closes a cycle of seed pairs beside
    # the free terminal's path; pointer doubling never reaches a root on it,
    # and at length 4 it stops at labels that point at themselves
    adj = [[i, (i + 1) % length] for i in range(length)] + [[length]]
    inst = instance_of(adj, half=1, canonical=range(length))
    assert matching._path_matching(inst) is None
    res = max_matching(inst)
    assert res.certified and matching_lists(res) == ref_max_matching(length + 1, adj, range(length))


@pytest.mark.parametrize("labels", [
    [0, 1, 2, 3],   # every vertex its own root: the cover misses edge (3, 0)
    [3, 1, 3, 3],   # left 1 cut off its path: left 0 and left 1 both take right 1
], ids=["cover_misses_an_edge", "pairs_share_a_right_vertex"])
def test_path_certificate_checks_reject_wrong_labels(monkeypatch, labels):
    # free left 3 -> right 0 = left 0 -> right 1 = left 1 -> right 2 = left 2 -> free right 3
    adj = [[0, 1], [1, 2], [2, 3], [0]]
    inst = instance_of(adj, half=1, canonical=range(3))
    assert matching._path_matching(inst) is not None
    monkeypatch.setattr(matching, "path_roots", lambda up: np.array(labels, dtype=np.int32))
    assert matching._path_matching(inst) is None
    res = max_matching(inst)
    assert res.certified and matching_lists(res) == ref_max_matching(4, adj, range(3))


def certificate_and_oracle(g, m):
    roots = path_labels(g)
    assert roots is not None
    res = max_matching(bipartite_of(g, m))
    assert res.certified
    return certified_size(g, m, roots), res.size


@pytest.mark.parametrize("m, b, k, p", [(8, 2, 2, 1), (16, 4, 2, 1), (8, 2, 2, 2), (12, 3, 1, 2)])
def test_certificate_equals_the_oracle_on_generated_graphs(m, b, k, p):
    params = default_params(m, b, k=k, p=p)
    for sigma in (sigma_eq(m), sigma_cross(m), random_perm(m, random.Random(m + p))):
        g = gen_general(sigma, params, random.Random(7))
        size, want = certificate_and_oracle(g, m)
        assert size == want == matching_size(sigma, g.vertex_count)


@settings(deadline=None, max_examples=150)
@given(path_graphs())
@example((2, LayeredGraph([2], [])))                                       # depth 1
@example((2, LayeredGraph([2, 2, 2], [(1, 1, 1), (1, 2, 2), (2, 2, 1)])))  # stops at layer 2
@example((2, LayeredGraph([2, 3], [(1, 1, 3), (1, 2, 1)])))                # ends at sink 3 > m
def test_certificate_equals_the_oracle_on_any_union_of_paths(mg):
    m, g = mg
    m -= m % 2
    size, want = certificate_and_oracle(g, m)
    assert size == want


def test_certificate_checks_every_edge_of_the_reduction(monkeypatch):
    # the blocks the certificate is checked against, with the copy edges of
    # the seeded vertices, are bipartite_of's edges (one multiset), and the
    # reference's
    real = matching._certificate
    checked = []

    def spy(seeded, on, reached, edges):
        edges = list(edges)
        checked.extend(zip(*map(np.concatenate, zip(*edges))))
        checked.extend((v, v) for v in np.flatnonzero(seeded).tolist())
        return real(seeded, on, reached, edges)

    monkeypatch.setattr(matching, "BLOCK", 7)
    monkeypatch.setattr(matching, "_certificate", spy)
    g = gen_general(sigma_cross(4), default_params(4, 2, k=1, p=2), random.Random(1))
    assert certified_size(g, 4, path_labels(g)) == g.vertex_count
    inst = bipartite_of(g, 4)
    want = sorted(zip(inst.left.tolist(), inst.right.tolist()))
    assert sorted(map(tuple, np.array(checked).tolist())) == want
    ref = ref_bipartite_adj(g.layers, [tuple(e) for e in g.edges.tolist()], 4)
    assert want == sorted((l, r) for l, row in enumerate(ref) for r in row)


@settings(deadline=None, max_examples=200)
@given(path_graphs(), st.data())
def test_corrupted_labels_never_certify_a_wrong_size(mg, data):
    # the true labels with some entries changed to any value: the
    # certificate is right or declines
    m, g = mg
    m -= m % 2
    n = g.vertex_count
    roots = path_labels(g)
    for at in data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4)):
        roots[at] = data.draw(st.integers(-1, n + 2))
    size = certified_size(g, m, roots)
    assert size is None or size == max_matching(bipartite_of(g, m)).size
