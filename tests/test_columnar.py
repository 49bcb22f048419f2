"""The columnar graph paths against list-based reference implementations.

Each reference below is the tuple-and-list version of the same routine: edges
as (layer, u, v) tuples, one tag string per edge. The columnar code must give
identical edges, tags, orders, adjacency lists, artifact text and errors,
including on edges out of layer order, empty edge sets, tag tables with unused
names and more than ten players (string order puts "player:10" before
"player:2").
"""

import json
import random
import re
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permlab.blocks import EdgeTuple, edge_pick, encoded_rs
from permlab.gen import _layer_plan, _pieces, default_params, gen_general
from permlab.graphs import (
    _CHUNK,
    ExtractionError,
    GroupLayeredGraph,
    LayeredGraph,
    _format_rows,
    basic,
    concat_all,
    extract_permutation,
)
from permlab.hph import force_gamma, recompute_gamma_star, sample_core
from permlab.matching import (
    BipartiteInstance,
    bipartite_of,
    instance_to_stream,
    max_matching,
    sigma_cross,
)
from permlab.perms import (
    compose,
    extend,
    identity,
    inverse,
    join,
    lex_partition,
    random_perm,
    swap_perm,
    vec,
)
from permlab.streams import MAGIC, EdgeStream, dump_stream, graph_to_stream, parse_stream

TAGS = ("fixed", "referee", *(f"player:{i}" for i in range(1, 13)))


def listed(g):
    return list(g.layers), [tuple(e) for e in g.edges.tolist()], g.tags


# ---------------------------------------------------------------------------
# list-based references


def ref_concat_all(parts):
    layers, edges, tags = [], [], []
    for p_layers, p_edges, p_tags in reversed(parts):
        if layers:
            junction = min(layers[-1], p_layers[0])
            li = len(layers)
            edges.extend((li, i, i) for i in range(1, junction + 1))
            tags.extend("fixed" for _ in range(junction))
        off = len(layers)
        layers.extend(p_layers)
        edges.extend((li + off, u, v) for (li, u, v) in p_edges)
        tags.extend(p_tags)
    return layers, edges, tags


# The nested assembly the sampler used before it joined each sample once:
# every block, multi-block, non-Lex wrapper and piece was concatenated on its
# own, so an edge was copied once per level. The rng draw order is the
# sampler's: player matrices, row indices, hypermatching, then the routes of
# blocks a = 1..k (left before right), the shift gadget last.


def ref_block(grs, sig, e, b, player_tag, route):
    sl, sr = edge_pick(grs, e)
    enc = ref_expand(encoded_rs(grs, sig, b), player_tag)
    left = route(extend(sl, b))
    right = route(extend(sr, b))
    return ref_concat_all([right, enc, left])


def ref_multi_block(grs, sigs, L, M, b, route):
    return ref_concat_all([
        ref_block(grs, sigs[a], EdgeTuple(L[a], tuple(M[a])), b, f"player:{a + 1}", route)
        for a in range(len(sigs))
    ])


def ref_sample_simple(rho, P, params, rng):
    m, b, k, p = params.m, params.b, params.k, params.p
    canon = tuple(sorted((tuple(sorted(g)) for g in P), key=lambda g: g[0]))
    lex = lex_partition(m, b)
    if canon != lex:
        s = swap_perm(canon)
        inner = ref_sample_simple(compose(s, compose(rho, inverse(s))), lex, params, rng)
        return ref_concat_all([listed(basic(inverse(s))), inner, listed(basic(s))])
    grs = params.family
    sigmas, L, M = sample_core(grs.r, grs.t, b, k, rng)
    gamma = force_gamma(recompute_gamma_star(sigmas, L, M), vec(rho, b))
    if p == 1:
        def route(s):
            return listed(basic(s, "referee"))
    else:
        def route(s):
            layers, edges, tags = ref_gen_general(s, replace(params, m=len(s), p=p - 1), rng)
            return layers, edges, ["fixed" if t == "fixed" else "referee" for t in tags]
    return ref_concat_all([ref_multi_block(grs, sigmas, L, M, b, route), route(join(gamma))])


def ref_gen_general(sigma, params, rng):
    return ref_concat_all([ref_sample_simple(g, part, params, rng)
                           for part, g in _pieces(sigma, params.b)])


def ref_expand(gg, tag):
    edges = []
    for i, a1, a2, sigma in gg.tuples:
        for j in range(1, gg.b + 1):
            edges.append((i, (a1 - 1) * gg.b + j, (a2 - 1) * gg.b + sigma[j - 1]))
    return [gg.w * gg.b] * gg.d, edges, [tag] * len(edges)


def ref_stream(layers, edges, tags, shuffle_seed):
    offsets = [0]
    for size in layers[:-1]:
        offsets.append(offsets[-1] + size)
    rows = [(li, tag, offsets[li - 1] + u, offsets[li] + v) for (li, u, v), tag in zip(edges, tags)]
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    out_edges = [(u, v) for _, _, u, v in rows]
    out_tags = [tag for _, tag, _, _ in rows]
    if shuffle_seed is not None:
        order = list(range(len(out_edges)))
        random.Random(shuffle_seed).shuffle(order)
        out_edges = [out_edges[i] for i in order]
        out_tags = [out_tags[i] for i in order]
    return out_edges, out_tags


def ref_to_dict(g):
    """The JSON payload as Python lists: layers, edges, and tags unless every
    edge is tagged "fixed"."""
    payload = {"layers": g.layers, "edges": g.edges.tolist()}
    used = np.flatnonzero(np.bincount(g.tag_ids)).tolist()
    if any(g.tag_names[i] != "fixed" for i in used):
        payload["tags"] = g.tags
    return payload


def ref_dump_stream(stream):
    lines = [MAGIC, f"{stream.n} {len(stream.edges)} {1 if stream.directed else 0}"]
    for i, (u, v) in enumerate(stream.edges):
        if stream.tags is not None:
            lines.append(f"{u} {v} {stream.tags[i]}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def ref_stream_error(n, edges):
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            return f"edge ({u},{v}) outside [1,{n}]"
    return None


def ref_bipartite_adj(layers, edges, m):
    half = m // 2
    offsets = [0]
    for size in layers[:-1]:
        offsets.append(offsets[-1] + size)
    n = sum(layers)
    adj = [[] for _ in range(n + half)]
    for li, u, v in edges:
        adj[offsets[li - 1] + u - 1].append(offsets[li] + v - 1)
    for v in range(n):
        adj[v].append(v)
    for i in range(half):
        adj[n + i].append(i)
        adj[offsets[-1] + i].append(n + i)
    return adj


def instance_of(adj, half=0, canonical=()):
    """The BipartiteInstance with these per-left-vertex adjacency lists, the
    last half of them terminals."""
    left = [l for l, row in enumerate(adj) for _ in row]
    right = [r for row in adj for r in row]
    return BipartiteInstance.from_edges(len(adj) - half, half, left, right, canonical)


def adjacency(inst):
    """The instance's CSR columns as one list of right vertices per left vertex."""
    return [inst.indices[a:b].tolist() for a, b in zip(inst.indptr[:-1], inst.indptr[1:])]


def ref_instance_to_stream(side, adj):
    edges = []
    for l in range(side):
        for r in adj[l]:
            edges.append((l + 1, side + r + 1))
    return EdgeStream(n=2 * side, directed=False, edges=edges, tags=None)


def ref_max_matching(side, adj, canonical):
    """Hopcroft-Karp over adjacency lists with the Koenig cover certificate
    checked edge by edge: (size, match_left, cover_left, cover_right, certified)."""
    match_l = [-1] * side
    match_r = [-1] * side
    for v in canonical:
        match_l[v] = v
        match_r[v] = v
    INF = side + 1
    dist = [INF] * side

    def bfs() -> bool:
        q = deque()
        for l in range(side):
            if match_l[l] == -1:
                dist[l] = 0
                q.append(l)
            else:
                dist[l] = INF
        found = False
        while q:
            l = q.popleft()
            for r in adj[l]:
                nxt = match_r[r]
                if nxt == -1:
                    found = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[l] + 1
                    q.append(nxt)
        return found

    def augment(root: int) -> None:
        path, untried, via = [root], [iter(adj[root])], []
        while path:
            l = path[-1]
            for r in untried[-1]:
                nxt = match_r[r]
                if nxt == -1:
                    via.append(r)
                    for l, r in zip(path, via):
                        match_l[l] = r
                        match_r[r] = l
                    return
                if dist[nxt] == dist[l] + 1:
                    path.append(nxt)
                    untried.append(iter(adj[nxt]))
                    via.append(r)
                    break
            else:
                dist[l] = INF
                path.pop()
                untried.pop()
                if via:
                    via.pop()

    while bfs():
        for l in range(side):
            if match_l[l] == -1:
                augment(l)

    size = side - match_l.count(-1)
    cover_left = [l for l in range(side) if dist[l] == INF]
    in_cl = set(cover_left)
    in_cr = {r for l in range(side) if dist[l] != INF for r in adj[l]}
    cover_right = sorted(in_cr)
    certified = len(cover_left) + len(cover_right) == size and all(
        l in in_cl or r in in_cr for l in range(side) for r in adj[l]
    )
    return size, match_l, cover_left, cover_right, certified


def ref_extract(layers, edges, m):
    """(permutation, None) or (None, (source, sinks, message))."""
    adj = [[[] for _ in range(layers[i])] for i in range(len(layers) - 1)]
    for li, u, v in edges:
        adj[li - 1][u - 1].append(v)
    out = []
    for i in range(1, m + 1):
        frontier = {i}
        for layer_adj in adj:
            frontier = {v for u in frontier for v in layer_adj[u - 1]}
            if not frontier:
                break
        hits = sorted(v for v in frontier if v <= m)
        if len(hits) != 1:
            return None, (i, hits, str(ExtractionError(i, hits)))
        out.append(hits[0])
    if sorted(out) != list(range(1, m + 1)):
        dup = next(v for v in out if out.count(v) > 1)
        message = (f"sources {[i + 1 for i, v in enumerate(out) if v == dup]} "
                   f"all reach sink {dup} (the map is not a bijection)")
        return None, (out.index(dup) + 1, [dup], message)
    return tuple(out), None


def ref_validate(layers, edges):
    for li, u, v in edges:
        if not 1 <= li <= len(layers) - 1:
            return f"edge layer {li} out of range"
        if not (1 <= u <= layers[li - 1] and 1 <= v <= layers[li]):
            return f"edge ({li},{u},{v}) leaves its layers"
    return None


# ---------------------------------------------------------------------------
# generated graphs


@st.composite
def graphs(draw, min_size=1, valid=True):
    """Edges in arbitrary layer order (possibly none), ids into a tag table
    that may hold names no edge uses."""
    depth = draw(st.integers(1, 5))
    layers = draw(st.lists(st.integers(min_size, min_size + 3), min_size=depth, max_size=depth))
    if not valid:
        edge = st.tuples(st.integers(-1, depth + 1), st.integers(-1, 8), st.integers(-1, 8))
    else:
        edge = st.integers(1, depth - 1).flatmap(lambda li: st.tuples(
            st.just(li), st.integers(1, layers[li - 1]), st.integers(1, layers[li])))
    edges = [] if valid and depth == 1 else draw(st.lists(edge, max_size=16))
    names = tuple(draw(st.lists(st.sampled_from(TAGS), min_size=1, unique=True)))
    ids = draw(st.lists(st.integers(0, len(names) - 1), min_size=len(edges), max_size=len(edges)))
    return LayeredGraph.from_columns(
        layers,
        np.array(edges, dtype=np.int32).reshape(-1, 3),
        np.array(ids, dtype=np.uint16),
        names,
    )


@st.composite
def permutation_graphs(draw):
    """Chains of permutation gadgets with their edge rows shuffled."""
    m = draw(st.integers(2, 5))
    perm = st.permutations(range(1, m + 1)).map(tuple)
    perms = draw(st.lists(perm, min_size=1, max_size=4))
    g = concat_all([basic(p, draw(st.sampled_from(TAGS))) for p in perms])
    order = np.array(draw(st.permutations(range(len(g.edges)))), dtype=np.intp)
    return m, LayeredGraph.from_columns(g.layers, g.edges[order], g.tag_ids[order], g.tag_names)


# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(st.lists(graphs(), min_size=1, max_size=4))
def test_concat_all_matches_reference(parts):
    g = concat_all(parts)
    assert listed(g) == ref_concat_all([listed(p) for p in parts])
    assert g.edges.dtype == np.int32 and g.tag_ids.dtype == np.uint16


@pytest.mark.parametrize("b, k, p", [(b, k, p) for b in (2, 3) for k in (1, 2) for p in (1, 2)])
def test_gen_general_matches_nested_reference(b, k, p):
    m = 2 * b
    assert any(part != lex_partition(m, b) for part in _layer_plan(m, b))  # non-Lex pieces
    params = default_params(m, b, k=k, p=p)
    for sigma in (identity(m), sigma_cross(m), random_perm(m, random.Random(b + k + p))):
        g = gen_general(sigma, params, random.Random(7))
        assert listed(g) == ref_gen_general(sigma, params, random.Random(7))


def test_gen_general_concatenates_once(monkeypatch):
    calls = []

    def counted(parts):
        calls.append(len(parts))
        return concat_all(parts)

    monkeypatch.setattr("permlab.gen.concat_all", counted)
    monkeypatch.setattr("permlab.blocks.concat_all", counted)
    params = default_params(8, 2, k=2, p=1)
    g = gen_general(sigma_cross(8), params, random.Random(1))
    assert len(calls) == 1
    assert extract_permutation(g, 8) == sigma_cross(8)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(1, 4), st.integers(2, 4), st.integers(1, 3),
    st.data(), st.sampled_from(TAGS),
)
def test_expand_matches_reference(w, d, b, data, tag):
    perm = st.permutations(range(1, b + 1)).map(tuple)
    tup = st.tuples(st.integers(1, d - 1), st.integers(1, w), st.integers(1, w), perm)
    gg = GroupLayeredGraph(w, d, b, data.draw(st.lists(tup, max_size=6)))
    assert listed(gg.expand(tag=tag)) == ref_expand(gg, tag)


@settings(deadline=None, max_examples=40)
@given(graphs(), st.one_of(st.sampled_from([None, 0, 3]), st.integers(0, 2**32)))
def test_stream_order_matches_reference(g, shuffle_seed):
    stream = graph_to_stream(g, shuffle_seed=shuffle_seed)
    layers, edges, tags = listed(g)
    assert (stream.edges, stream.tags) == ref_stream(layers, edges, tags, shuffle_seed)
    assert all(type(x) is int for e in stream.edges for x in e)
    assert stream.us.dtype == stream.vs.dtype == np.int32


def test_stream_orders_tags_as_strings():
    # ten-plus players: "player:10" sorts before "player:2", as str does
    g = LayeredGraph([2, 2], [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)],
                     ["player:2", "player:10", "player:11", "player:1"])
    stream = graph_to_stream(g)
    assert stream.tags == ["player:1", "player:10", "player:11", "player:2"]
    assert stream.edges == [(2, 4), (1, 4), (2, 3), (1, 3)]
    assert (stream.edges, stream.tags) == ref_stream(*listed(g), None)


@settings(deadline=None, max_examples=30)
@given(graphs())
def test_bipartite_of_matches_reference(g):
    inst = bipartite_of(g, 2)
    want = ref_bipartite_adj(g.layers, [tuple(e) for e in g.edges.tolist()], 2)
    assert adjacency(inst) == want
    assert inst.indptr.dtype == inst.indices.dtype == np.int64
    assert len(inst.indptr) == inst.side + 1 and inst.edge_count == sum(map(len, want))


@settings(deadline=None, max_examples=30)
@given(permutation_graphs())
def test_matching_identical_on_reordered_edges(mg):
    m, g = mg
    m -= m % 2
    inst = bipartite_of(g, m)
    ref_adj = ref_bipartite_adj(g.layers, [tuple(e) for e in g.edges.tolist()], m)
    res = max_matching(inst)
    ref = max_matching(instance_of(ref_adj, inst.half, inst.canonical))
    assert (res.size, res.match_left, res.cover_left, res.cover_right) == (
        ref.size, ref.match_left, ref.cover_left, ref.cover_right)
    assert (res.size, res.match_left, res.cover_left, res.cover_right, res.certified) == (
        ref_max_matching(inst.side, ref_adj, inst.canonical))


@st.composite
def adjacency_lists(draw):
    """(adj, half, canonical): n copied vertices plus half terminals per side,
    rows that may be empty or leave right vertices unused, and canonical
    vertices whose copy edge is somewhere in their row."""
    n = draw(st.integers(0, 6))
    half = draw(st.integers(0, 3))
    side = n + half
    adj = draw(st.lists(st.lists(st.integers(0, side - 1), unique=True, max_size=side),
                        min_size=side, max_size=side)) if side else []
    canonical = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    for v in canonical:
        if v not in adj[v]:
            adj[v].insert(draw(st.integers(0, len(adj[v]))), v)
    return adj, half, canonical


@settings(deadline=None, max_examples=200)
@given(adjacency_lists())
@example(([], 0, []))                              # empty instance
@example(([[], [], []], 1, []))                    # isolated vertices only
@example(([[0, 1], [1], [0]], 1, [0, 1]))          # a terminal, two copy pairs
def test_max_matching_matches_list_reference(case):
    adj, half, canonical = case
    inst = instance_of(adj, half, canonical)
    assert adjacency(inst) == adj
    res = max_matching(inst)
    assert (res.size, res.match_left, res.cover_left, res.cover_right, res.certified) == (
        ref_max_matching(inst.side, adj, canonical))
    assert res.certified


@settings(deadline=None, max_examples=60)
@given(adjacency_lists())
def test_instance_to_stream_matches_reference(case):
    adj, half, canonical = case
    inst = instance_of(adj, half, canonical)
    stream, want = instance_to_stream(inst), ref_instance_to_stream(inst.side, adj)
    assert (stream.n, stream.directed, stream.edges, stream.tags) == (
        want.n, want.directed, want.edges, want.tags)


@settings(deadline=None, max_examples=30)
@given(permutation_graphs())
def test_bipartite_stream_matches_reference(mg):
    m, g = mg
    m -= m % 2
    stream = instance_to_stream(bipartite_of(g, m))
    want = ref_bipartite_adj(g.layers, [tuple(e) for e in g.edges.tolist()], m)
    assert stream.edges == ref_instance_to_stream(g.vertex_count + m // 2, want).edges


def test_bipartite_stream_of_a_swap():
    # per left vertex: graph edges, then the copy edge, then terminal edges
    stream = instance_to_stream(bipartite_of(basic((2, 1)), 2))
    assert stream.n == 10
    assert stream.edges == [(1, 9), (1, 6), (2, 8), (2, 7), (3, 8), (3, 10), (4, 9), (5, 6)]


def check_extract(g, m):
    want, err = ref_extract(g.layers, [tuple(e) for e in g.edges.tolist()], m)
    if err is None:
        assert extract_permutation(g, m) == want
    else:
        with pytest.raises(ExtractionError) as got:
            extract_permutation(g, m)
        assert (got.value.source, got.value.sinks, str(got.value)) == err


@settings(deadline=None, max_examples=40)
@given(graphs(min_size=2), st.integers(1, 2))
def test_extract_matches_reference(g, m):
    check_extract(g, m)


@settings(deadline=None, max_examples=30)
@given(permutation_graphs())
def test_extract_ignores_edge_order(mg):
    m, g = mg
    check_extract(g, m)


@pytest.mark.parametrize("edges, source, sinks", [
    ([(2, 1, 1), (1, 1, 1), (1, 1, 2), (2, 2, 2)], 1, [1, 2]),      # branching
    ([(2, 2, 2), (1, 2, 2), (2, 1, 1)], 1, []),                     # dead
    ([(2, 1, 1), (1, 1, 1), (1, 2, 1)], 1, [1]),                    # not a bijection
])
def test_extract_errors(edges, source, sinks):
    g = LayeredGraph([2, 2, 2], edges)
    check_extract(g, 2)
    with pytest.raises(ExtractionError) as got:
        extract_permutation(g, 2)
    assert (got.value.source, got.value.sinks) == (source, sinks)


@settings(deadline=None, max_examples=40)
@given(graphs(valid=False))
def test_validate_reports_first_bad_edge(g):
    want = ref_validate(g.layers, [tuple(e) for e in g.edges.tolist()])
    if want is None:
        g.validate()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            g.validate()


def test_validate_names_first_of_several_bad_edges():
    g = LayeredGraph([2, 3], [(1, 1, 1), (1, 2, 4), (0, 1, 1), (1, 3, 1)])
    with pytest.raises(ValueError, match=r"^edge \(1,2,4\) leaves its layers$"):
        g.validate()
    g = LayeredGraph([2, 3], [(1, 1, 1), (3, 1, 1), (1, 2, 4)])
    with pytest.raises(ValueError, match=r"^edge layer 3 out of range$"):
        g.validate()


def test_to_dict_ignores_unused_tag_names():
    g = LayeredGraph.from_columns(
        [2, 2], np.array([[1, 1, 2], [1, 2, 1]], dtype=np.int32),
        np.zeros(2, dtype=np.uint16), ("fixed", "player:3"),
    )
    doc = ref_to_dict(g)
    assert doc == {"layers": [2, 2], "edges": [[1, 1, 2], [1, 2, 1]]}
    assert g.to_json() == json.dumps(doc, sort_keys=True)
    tagged = LayeredGraph.from_dict({**doc, "tags": ["fixed", "referee"]})
    assert json.loads(tagged.to_json())["tags"] == ["fixed", "referee"]


@pytest.mark.parametrize("edges, error", [
    ([[1, 1.5, 2]], TypeError),
    ([[1, "1", 2]], TypeError),
    ([[1, None, 2]], TypeError),
    ([[1, 1], [1, 1, 1, 1]], ValueError),
    ([[1, 1, 2**40]], OverflowError),
])
def test_from_dict_rejects_malformed_edges(edges, error):
    with pytest.raises(error):
        LayeredGraph.from_dict({"layers": [2, 2], "edges": edges})


# ---------------------------------------------------------------------------
# artifact writers

INT32 = st.integers(-2**31, 2**31 - 1)
EXTREMES = [0, 1, -1, 2**31 - 1, -2**31, *(s * 10**k + d for k in range(1, 10)
                                          for s in (1, -1) for d in (-1, 0, 1))]
WORDS = ("fixed", "referee", "player:10", "jugador:ñ", "игрок:2", "玩家:3")  # no whitespace


def test_format_rows_prints_int32_as_str():
    col = np.array(EXTREMES, dtype=np.int32)
    assert _format_rows((b"<", b">\n"), [col]).decode() == "".join(f"<{v}>\n" for v in EXTREMES)
    assert _format_rows((b"", b""), [np.zeros(3, dtype=np.int32)]) == b"000"
    assert _format_rows((b"", b" ", b""), [col[:0]], col[:0], [b"x"]) == b""


@st.composite
def raw_graphs(draw):
    """Any int32 edge rows (possibly none), any layer sizes, and tag tables
    with unused and non-ASCII names."""
    edges = draw(st.lists(st.tuples(INT32, INT32, INT32), max_size=12))
    names = tuple(draw(st.lists(st.sampled_from(WORDS) | st.text(max_size=4),
                                min_size=1, max_size=4, unique=True)))
    ids = draw(st.lists(st.integers(0, len(names) - 1), min_size=len(edges), max_size=len(edges)))
    return LayeredGraph.from_columns(
        draw(st.lists(st.integers(1, 2**40), min_size=1, max_size=4)),
        np.array(edges, dtype=np.int32).reshape(-1, 3),
        np.array(ids, dtype=np.uint16),
        names,
    )


@settings(deadline=None, max_examples=80)
@given(raw_graphs())
@example(LayeredGraph.from_columns(
    [3], np.array(EXTREMES[:3 * (len(EXTREMES) // 3)], dtype=np.int32).reshape(-1, 3),
    np.zeros(len(EXTREMES) // 3, dtype=np.uint16), ("fixed", "unused")))
@example(LayeredGraph([2], [], []))
def test_to_json_matches_reference(g):
    assert g.to_json() == json.dumps(ref_to_dict(g), sort_keys=True)


def test_writers_match_reference_across_chunks():
    rng = np.random.default_rng(0)
    rows = _CHUNK + 7
    edges = rng.integers(-2**31, 2**31, size=(rows, 3), dtype=np.int64).astype(np.int32)
    edges[:, 0] = rng.integers(1, 10**rng.integers(1, 10, rows))  # varying widths per chunk
    g = LayeredGraph.from_columns([4, 4], edges, rng.integers(0, 3, rows).astype(np.uint16),
                                  ("fixed", "referee", "jugador:ñ"))
    assert g.to_json() == json.dumps(ref_to_dict(g), sort_keys=True)
    n = 2**31 - 1
    us, vs = (rng.integers(1, n, rows, endpoint=True) for _ in range(2))
    stream = EdgeStream.from_columns(n, True, us, vs, g.tag_ids, g.tag_names)
    assert dump_stream(stream) == ref_dump_stream(stream)


@st.composite
def streams(draw):
    n = draw(st.integers(1, 2**31 - 1))
    edges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
    tag = st.sampled_from(WORDS)
    tags = draw(st.none() | st.lists(tag, min_size=len(edges), max_size=len(edges)))
    return EdgeStream(n, draw(st.booleans()), edges, tags)


@settings(deadline=None, max_examples=60)
@given(streams())
@example(EdgeStream(3, False, [], None))
@example(EdgeStream(3, True, [], []))
def test_stream_text_matches_reference_and_round_trips(stream):
    text = dump_stream(stream)
    assert text == ref_dump_stream(stream)
    back = parse_stream(text)
    # the text of an empty stream does not say whether it was tagged
    assert (back.n, back.directed, back.edges, back.tags) == (
        stream.n, stream.directed, stream.edges, stream.tags if len(stream) else None)
    assert back.us.dtype == back.vs.dtype == np.int32


@pytest.mark.parametrize("tags", [["", ""], ["a", ""], ["a b", "c"], ["a", "b\nc"], ["\t", "a"]],
                         ids=["all-empty", "one-empty", "space", "newline", "tab"])
def test_dump_stream_rejects_tags_it_cannot_read_back(tags):
    stream = EdgeStream(3, True, [(1, 2), (2, 3)], tags)
    bad = next(t for t in tags if t.split() != [t])
    with pytest.raises(ValueError, match=f"^tag {re.escape(repr(bad))} "):
        dump_stream(stream)


def test_dump_stream_ignores_unused_tag_names():
    one = np.array([1, 2], dtype=np.int32)
    stream = EdgeStream.from_columns(3, True, one, one + 1, np.zeros(2, dtype=np.uint32),
                                     ("a", "b c", ""))
    assert dump_stream(stream) == f"{MAGIC}\n3 2 1\n1 2 a\n2 3 a\n"


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 10), st.lists(st.tuples(INT32, INT32), max_size=8))
def test_stream_bounds_error_names_first_bad_edge(n, edges):
    want = ref_stream_error(n, edges)
    if want is None:
        assert EdgeStream(n, False, edges).edges == edges
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            EdgeStream(n, False, edges)
        lines = "".join(f"{u} {v}\n" for u, v in edges)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            parse_stream(f"{MAGIC}\n{n} {len(edges)} 0\n{lines}")


def test_stream_constructor_errors():
    with pytest.raises(ValueError, match=r"^edge \(5,1\) outside \[1,4\]$"):
        EdgeStream(4, False, [(1, 2), (5, 1), (0, 3)], ["a", "b", "c"])
    with pytest.raises(ValueError, match="tags must parallel edges"):
        EdgeStream(4, False, [(1, 2), (5, 1)], ["a"])
    with pytest.raises(ValueError, match="pair"):
        EdgeStream(4, False, [(1, 2, 3), (1,)])
    with pytest.raises(ValueError, match="int32"):
        EdgeStream(2**31, False, [])
