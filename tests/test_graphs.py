import random

import pytest
from hypothesis import given, settings, strategies as st

from permlab.graphs import (
    ExtractionError,
    LayeredGraph,
    basic,
    concat_all,
    extract_permutation,
)
from permlab.perms import compose, identity, random_perm

perm_of = lambda m: st.permutations(range(1, m + 1)).map(tuple)


def sinks_reached(g: LayeredGraph, i: int) -> list[int]:
    # independent oracle: worklist over the raw edge list, no adjacency prep
    seen = {(1, i)}
    work = [(1, i)]
    while work:
        li, u = work.pop()
        for el, eu, ev in g.edges:
            if el == li and eu == u and (li + 1, ev) not in seen:
                seen.add((li + 1, ev))
                work.append((li + 1, ev))
    d = len(g.layers)
    return sorted(v for lj, v in seen if lj == d)


def oracle_extract(g: LayeredGraph, m: int):
    out = []
    for i in range(1, m + 1):
        hits = [v for v in sinks_reached(g, i) if v <= m]
        assert len(hits) == 1
        out.append(hits[0])
    return tuple(out)


def test_basic_edges():
    g = basic((2, 3, 4, 1))
    assert g.layers == [4, 4]
    assert set(g.edges) == {(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 4, 1)}


def test_basic_realizes_sigma():
    sigma = (3, 1, 4, 2)
    assert oracle_extract(basic(sigma), 4) == sigma
    assert extract_permutation(basic(sigma), 4) == sigma


def test_concat_order_and_compose():
    # g2 is traversed first, so the result realizes sigma1 o sigma2
    s1, s2 = (2, 3, 1), (3, 1, 2)
    g = concat_all([basic(s1), basic(s2)])
    assert g.layers == [3, 3, 3, 3]
    assert oracle_extract(g, 3) == compose(s1, s2)
    assert extract_permutation(g, 3) == compose(s1, s2)


def test_concat_junction_truncates():
    wide = LayeredGraph([3, 3], [(1, i, i) for i in (1, 2, 3)])
    narrow = LayeredGraph([2, 2], [(1, 1, 2), (1, 2, 1)])
    g = concat_all([narrow, wide])  # wide first, then junction into narrow
    junction = [(li, u, v) for (li, u, v) in g.edges if li == 2]
    assert junction == [(2, 1, 1), (2, 2, 2)]
    g2 = concat_all([wide, narrow])
    junction2 = [(li, u, v) for (li, u, v) in g2.edges if li == 2]
    assert junction2 == [(2, 1, 1), (2, 2, 2)]


@settings(deadline=None, max_examples=25)
@given(st.lists(perm_of(4), min_size=1, max_size=5))
def test_concat_all_matches_compose_oracle(perms):
    g = concat_all([basic(p) for p in perms])
    want = perms[0]
    for p in perms[1:]:
        want = compose(want, p)
    assert extract_permutation(g, 4) == want
    assert oracle_extract(g, 4) == want


def test_concat_all_matches_pairwise():
    rng = random.Random(7)
    gs = [basic(random_perm(5, rng)) for _ in range(4)]
    folded = gs[0]
    for h in gs[1:]:
        folded = concat_all([folded, h])
    linear = concat_all(gs)
    assert linear.layers == folded.layers
    assert linear.edges == folded.edges
    assert linear.tags == folded.tags


def test_extract_reports_branching_source():
    # source 1 reaches both sinks, source 2 reaches none
    g = LayeredGraph([2, 2], [(1, 1, 1), (1, 1, 2)])
    with pytest.raises(ExtractionError) as e:
        extract_permutation(g, 2)
    assert e.value.source == 1
    assert e.value.sinks == [1, 2]


def test_extract_reports_dead_source():
    g = LayeredGraph([2, 2], [(1, 1, 1)])
    with pytest.raises(ExtractionError) as e:
        extract_permutation(g, 2)
    assert e.value.source == 2
    assert e.value.sinks == []


def test_extract_ignores_filler_sinks():
    # wide last layer: positions past m do not count
    g = LayeredGraph([2, 4], [(1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 4)])
    assert extract_permutation(g, 2) == (2, 1)


def test_tags_flow_through_concat():
    a = basic((2, 1), tag="left")
    b = basic((1, 2), tag="right")
    g = concat_all([a, b])
    assert g.tags == ["right", "right", "fixed", "fixed", "left", "left"]


def test_json_roundtrip():
    g = concat_all([basic((2, 1), tag="x"), basic((1, 2))])
    h = LayeredGraph.from_json(g.to_json())
    assert h.layers == g.layers and h.edges == g.edges and h.tags == g.tags
    plain = basic((2, 1))
    assert "tags" not in plain.to_json()
    assert LayeredGraph.from_json(plain.to_json()).tags == plain.tags


def test_validate_catches_bad_edges():
    with pytest.raises(ValueError):
        LayeredGraph([2, 2], [(1, 3, 1)]).validate()
    with pytest.raises(ValueError):
        LayeredGraph([2, 2], [(2, 1, 1)]).validate()
