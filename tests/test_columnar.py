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
import string
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permlab.blocks import EdgeTuple, edge_pick, encoded_rs
from permlab.gen import (
    _factors,
    _layer_plan,
    default_params,
    gen_general,
    gen_simple,
    sample_simple,
    vertex_count,
)
from permlab import codec
from permlab.codec import CHUNK, WINDOW, FormatError, format_chunks, format_rows, tag_table
from permlab.graphs import (
    ExtractionError,
    GroupLayeredGraph,
    LayeredGraph,
    _edge_array_end,
    _path_hits,
    basic,
    concat_all,
    extract_permutation,
)
from permlab.hph import force_gamma, recompute_gamma_star
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
    random_simple,
    swap_perm,
    vec,
)
from permlab.streams import (
    MAGIC,
    EdgeStream,
    _in_order,
    dump_stream,
    graph_to_stream,
    parse_stream,
    stream_text,
)
from reference_draws import ref_sample_core

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
    sigmas, L, M = ref_sample_core(grs.r, grs.t, b, k, rng)
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
    # each piece's partition is read off its row of s^-1, which lists the
    # partition's groups in Lex's group order
    b = params.b
    factors = _factors(np.array([sigma], dtype=np.int32), b)[0].tolist()
    s_inv = _layer_plan(len(sigma), b)[3].tolist()
    parts = [[row[i:i + b] for i in range(0, len(row), b)] for row in s_inv]
    return ref_concat_all([ref_sample_simple(tuple(g), part, params, rng) for part, g in zip(parts, factors)])


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


def ref_from_dict(d):
    """The graph of a parsed JSON payload, through the list constructor."""
    return LayeredGraph(d["layers"], d["edges"], d.get("tags", ()))


def ref_from_json(text):
    """The graph of a JSON payload as json.loads reads it."""
    return ref_from_dict(json.loads(text))


def ref_parse_stream(text):
    """The stream of dump_stream's text, read line by line."""
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"missing header {MAGIC!r}")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 3:
        raise ValueError("second line must be '<n> <edges> <directed>'")
    n, count, directed = int(head[0]), int(head[1]), int(head[2])
    if directed not in (0, 1):
        raise ValueError(f"directed flag must be 0 or 1, got {directed}")
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != count:
        raise ValueError(f"expected {count} edges, found {len(body)}")
    edges, tags = [], []
    for ln in body:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"bad edge line {ln!r}")
        if len(parts) != len(body[0].split()):
            raise ValueError("mixed tagged and untagged edge lines")
        edges.append((int(parts[0]), int(parts[1])))
        tags += parts[2:]
    return EdgeStream(n, directed == 1, edges, tags if body and len(body[0].split()) == 3 else None)


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


def matching_lists(res):
    """A MatchingResult as ref_max_matching's tuple, its arrays as lists."""
    return (res.size, res.match_left.tolist(), res.cover_left.tolist(),
            res.cover_right.tolist(), res.certified)


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


@pytest.mark.parametrize("b, k, p", [(b, k, p) for b in (2, 3) for k in (1, 2) for p in (1, 2)]
                         + [(4, 3, 1), (4, 3, 2)])
def test_gen_general_matches_nested_reference(b, k, p):
    m = 2 * b
    assert _layer_plan(m, b)[4].any()  # non-Lex pieces
    params = default_params(m, b, k=k, p=p)
    for sigma in (identity(m), sigma_cross(m), random_perm(m, random.Random(b + k + p))):
        g = gen_general(sigma, params, random.Random(7))
        assert listed(g) == ref_gen_general(sigma, params, random.Random(7))


@pytest.mark.parametrize("m, b, k, p", [(4, 2, 2, 1), (6, 3, 1, 2), (16, 4, 3, 1), (8, 2, 1, 2)])
def test_plan_matches_nested_reference(m, b, k, p):
    # the layout depends on (m, b, k, p) alone: every sigma's graph has the
    # nested reference's layers and edge count, and its vertex total is vertex_count
    params = default_params(m, b, k=k, p=p)
    shapes = set()
    for sigma in (identity(m), sigma_cross(m), random_perm(m, random.Random(m + p))):
        layers, edges, _ = ref_gen_general(sigma, params, random.Random(5))
        g = gen_general(sigma, params, random.Random(5))
        assert g.layers == layers and len(g.edges) == len(edges)
        shapes.add((tuple(g.layers), len(g.edges)))
    (shape,) = shapes
    assert sum(shape[0]) == vertex_count(params, general=True)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("m, b", [(8, 2), (6, 3), (8, 4)])
def test_gen_simple_matches_nested_reference(m, b, p):
    # on Lex and on a non-Lex partition, whose sample is the Lex sample of
    # s o rho o s^-1 wrapped in the two fixed layers of s and s^-1
    params = default_params(m, b, k=2, p=p)
    shuffled = random_perm(m, random.Random(m + b))
    nonlex = tuple(shuffled[i:i + b] for i in range(0, m, b))
    assert swap_perm(nonlex) != identity(m)
    for P in (lex_partition(m, b), nonlex):
        rho = random_simple(P, random.Random(p))
        ref = ref_sample_simple(rho, P, params, random.Random(9))
        assert listed(gen_simple(rho, P, params, random.Random(9))) == ref
        sampled, core = sample_simple(rho, P, params, random.Random(9))
        assert listed(sampled) == ref
        sigmas, L, M = ref_sample_core(params.family.r, params.family.t, b, 2, random.Random(9))
        s = swap_perm(P)
        on_lex = compose(s, compose(rho, inverse(s)))
        gamma = force_gamma(recompute_gamma_star(sigmas, L, M), vec(on_lex, b))
        assert core == {"sigmas": sigmas, "L": L, "M": M, "gamma": gamma}


@pytest.mark.parametrize("p", [1, 2])
def test_sample_simple_graph_is_gen_simple(p):
    params = default_params(8, 2, k=2, p=p)
    for P in (lex_partition(8, 2), ((1, 5), (2, 6), (3, 7), (4, 8))):
        rho = random_simple(P, random.Random(p))
        sampled, core = sample_simple(rho, P, params, random.Random(3))
        g = gen_simple(rho, P, params, random.Random(3))
        assert listed(sampled) == listed(g)
        assert extract_permutation(g, 8) == rho
        assert len(core["sigmas"]) == 2 and len(core["gamma"]) == 4


@pytest.mark.parametrize("p", [1, 2])
def test_gen_general_never_concatenates(p, monkeypatch):
    # each edge is written once, into the sample's one buffer: no part is
    # built as a graph of its own and no graphs are joined
    def refuse(*args, **kwargs):
        raise AssertionError("built or joined a part while sampling")

    for name in ("gen.concat_all", "blocks.concat_all", "graphs.concat_all", "graphs.basic",
                 "graphs.GroupLayeredGraph.expand"):
        monkeypatch.setattr(f"permlab.{name}", refuse)
    params = default_params(8, 2, k=2, p=p)
    g = gen_general(sigma_cross(8), params, random.Random(1))
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


@pytest.mark.parametrize("m, b, k, p", [(16, 4, 2, 2), (128, 4, 2, 1), (12, 3, 1, 2)])
def test_gen_writes_rows_in_stream_order(m, b, k, p):
    # the fill writes layer after layer, one gadget (one tag) per layer, each
    # gadget's and junction's rows by ascending u, so the sort is the identity
    g = gen_general(random_perm(m, random.Random(m)), default_params(m, b, k=k, p=p),
                    random.Random(2))
    gu, gv = g.global_ids()
    rank = np.argsort(np.argsort(np.array(g.tag_names)))
    keys = (g.edges[:, 0], rank[g.tag_ids], gu, gv)
    assert np.array_equal(np.lexsort(keys[::-1]), np.arange(len(gu)))
    assert _in_order(keys)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), max_size=12),
       st.booleans())
def test_in_order_agrees_with_lexsort(rows, sort):
    if sort:
        rows.sort()
    keys = tuple(np.array(col, dtype=np.int64).reshape(-1) for col in zip(*rows)) or (
        np.zeros(0, dtype=np.int64),)
    assert _in_order(keys) == np.array_equal(np.lexsort(keys[::-1]), np.arange(len(rows)))


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
    assert inst.indptr.dtype == np.int64 and inst.indices.dtype == np.int32
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
    assert matching_lists(res)[:4] == matching_lists(ref)[:4]
    assert matching_lists(res) == ref_max_matching(inst.side, ref_adj, inst.canonical.tolist())


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
    assert matching_lists(res) == ref_max_matching(inst.side, adj, canonical)
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


@st.composite
def path_graphs(draw):
    """(m, g): layered graphs whose vertices have in- and out-degree at most
    1, edges in any order. Each junction is a partial injection, so a path
    may stop before the last layer, and may end at a sink past m."""
    m = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 4))
    layers = draw(st.lists(st.integers(m, m + 2), min_size=depth, max_size=depth))
    edges = []
    for li in range(1, depth):
        targets = draw(st.permutations(range(1, layers[li] + 1)))
        edges += [(li, u, v) for u, v in enumerate(targets, start=1)
                  if u <= layers[li - 1] and draw(st.integers(0, 7))]  # drop 1 edge in 8
    order = draw(st.permutations(range(len(edges))))
    return m, LayeredGraph(layers, [edges[e] for e in order])


@settings(deadline=None, max_examples=150)
@given(path_graphs())
@example((2, LayeredGraph([2], [])))                                       # depth 1
@example((2, LayeredGraph([2, 2, 2], [(1, 1, 1), (1, 2, 2), (2, 2, 1)])))  # stops at layer 2
@example((2, LayeredGraph([2, 3], [(1, 1, 3), (1, 2, 1)])))            # ends at sink 3 > m
@example((3, LayeredGraph([3, 3, 3], [(1, 1, 2), (1, 2, 1), (1, 3, 3),
                                      (2, 1, 3), (2, 2, 1), (2, 3, 2)])))  # a permutation
def test_extract_reads_paths_off_their_roots(mg):
    m, g = mg
    assert _path_hits(g, m) is not None
    check_extract(g, m)


@pytest.mark.parametrize("edges", [
    [(1, 1, 1), (1, 1, 2), (1, 2, 2)],     # source 1 branches
    [(1, 1, 1), (1, 2, 1), (1, 2, 2)],     # sink 1 has two edges in
    [(1, 1, 1), (1, 2, 2), (1, 2, 3)],     # a branch to a sink past m: still (1, 2)
])
def test_extract_sweeps_graphs_that_are_not_paths(edges):
    g = LayeredGraph([2, 3], edges)
    assert _path_hits(g, 2) is None
    check_extract(g, 2)


def test_extract_sweeps_invalid_graphs():
    # an edge from position 0 leaves its layers; the sweep reads no source there
    g = LayeredGraph([2, 3], [(1, 0, 1), (1, 2, 2)])
    assert _path_hits(g, 2) is None
    with pytest.raises(ExtractionError) as got:
        extract_permutation(g, 2)
    assert (got.value.source, got.value.sinks) == (1, [])


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
    assert g.to_json() == json.dumps(doc, sort_keys=True).encode()
    tagged = ref_from_dict({**doc, "tags": ["fixed", "referee"]})
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
        LayeredGraph([2, 2], edges)


# ---------------------------------------------------------------------------
# artifact writers

INT32 = st.integers(-2**31, 2**31 - 1)
EXTREMES = [0, 1, -1, 2**31 - 1, -2**31, *(s * 10**k + d for k in range(1, 10)
                                          for s in (1, -1) for d in (-1, 0, 1))]
TAG_CHARS = string.ascii_letters + string.digits + "_:.-"
WORDS = ("fixed", "referee", "player:10", "a.b-c_d", "Z:9", "-")  # tags: runs of TAG_CHARS


def test_format_rows_prints_int32_as_str():
    col = np.array(EXTREMES, dtype=np.int32)
    assert format_rows((b"<", b">\n"), [col]).decode() == "".join(f"<{v}>\n" for v in EXTREMES)
    assert format_rows((b"", b""), [np.zeros(3, dtype=np.int32)]) == b"000"
    assert format_rows((b"", b" ", b""), [col[:0]], col[:0], [b"x"]) == b""


def ref_rows(seps, cols, ids=None, table=()):
    """format_rows's bytes, a row at a time with f-strings."""
    cells = [[f"{v}".encode() for v in col.tolist()] for col in cols]
    if ids is not None:
        cells.append([table[i] for i in ids.tolist()])
    return b"".join(seps[0] + b"".join(cell + sep for cell, sep in zip(row, seps[1:]))
                    for row in zip(*cells))


def chunk_rows(n):
    """n rows whose widest values and tags differ between the first chunk
    and the next: 1-digit ids and 5- or 7-letter tags, then 6-digit ids,
    negative in one column, and "player:10"."""
    i = np.arange(n)
    late = i >= CHUNK
    us = np.where(late, 10**5 + i, i % 10).astype(np.int32)
    vs = np.where(late, -us, i % 7).astype(np.int32)
    return [us, vs], np.where(late, 2, i % 2).astype(np.uint16)


TABLE = (b"fixed", b"referee", b"player:10")


@pytest.mark.parametrize("seps, cols, ids, table", [
    *(((b"", b" ", b" ", b"\n"), *chunk_rows(n), TABLE) for n in (CHUNK - 1, CHUNK, CHUNK + 1)),
    ((b"(", b",", b")"), [np.array([-1, -10, -2**31, -999], dtype=np.int32),
                          np.array([5, -2**31, 0, 2**31 - 1], dtype=np.int32)], None, ()),
    ((b"", b"", b""), [np.array([12, -3, 0], dtype=np.int32), np.array([-45, 6, 7], dtype=np.int32)],
     None, ()),
    ((b"", b"", b""), [np.array([1, 23], dtype=np.int32)], np.array([1, 0]), (b"ab", b"c")),
    ((b"<", b"|", b">"), [np.array([1, 2, 3], dtype=np.int32)], np.array([0, 1, 0]), (b"", b"tag")),
    ((b"[", b"]"), [], np.array([0, 0]), (b"", b"")),
    ((b"", b" ", b" ", b"\n"), [np.empty(0, dtype=np.int32)] * 2, np.empty(0, dtype=np.uint16), TABLE),
], ids=["chunk-1", "chunk", "chunk+1", "signs", "empty-seps", "empty-seps-tags", "empty-entry",
        "empty-entries-only", "no-rows"])
def test_format_rows_matches_fstrings(seps, cols, ids, table):
    assert format_rows(seps, cols, ids, table) == ref_rows(seps, cols, ids, table)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_format_rows_matches_fstrings_on_any_rows(data):
    rows = data.draw(st.integers(0, 8))
    cols = [np.array(data.draw(st.lists(INT32, min_size=rows, max_size=rows)), dtype=np.int32)
            for _ in range(data.draw(st.integers(0, 3)))]
    table = data.draw(st.lists(st.sampled_from([b"", *(w.encode() for w in WORDS)]), min_size=1, max_size=4))
    ids = (np.array(data.draw(st.lists(st.integers(0, len(table) - 1), min_size=rows, max_size=rows)))
           if not cols or data.draw(st.booleans()) else None)
    seps = data.draw(st.lists(st.sampled_from([b"", b" ", b", ", b"\n", b'"']),
                              min_size=len(cols) + (ids is not None) + 1,
                              max_size=len(cols) + (ids is not None) + 1))
    assert format_rows(seps, cols, ids, table) == ref_rows(seps, cols, ids, table)


@pytest.mark.parametrize("seps, table", [
    ((b"\0", b"\n"), ()),
    ((b"", b" \0", b"\n"), ()),
    ((b"", b" ", b" ", b"\n"), (b"fixed", b"ref\0ree")),
    ((b"", b" ", b" ", b"\n"), (b"\0",)),
])
def test_format_chunks_refuses_nul_bytes(seps, table):
    # a NUL would be dropped as an unprinted cell; refused before any chunk is made
    cols = [np.arange(3, dtype=np.int32)] * (len(seps) - 1 - bool(table))
    with pytest.raises(ValueError, match="NUL"):
        format_chunks(seps, cols, np.zeros(3, dtype=np.uint16) if table else None, table)


def test_format_chunks_refuses_columns_other_than_int32():
    with pytest.raises(TypeError, match="int32"):
        format_chunks((b"", b"\n"), [np.arange(3)])


def test_artifact_separators_hold_no_nul():
    from permlab import graphs, streams

    for seps in (graphs._EDGE_ROW, graphs._TAG_ROW, streams._LINE, streams._TAGGED_LINE):
        assert not any(0 in sep for sep in seps)


@st.composite
def raw_graphs(draw):
    """Any int32 edge rows (possibly none), any layer sizes, and tag tables
    with unused names."""
    edges = draw(st.lists(st.tuples(INT32, INT32, INT32), max_size=12))
    names = tuple(draw(st.lists(st.sampled_from(WORDS) | st.text(TAG_CHARS, min_size=1, max_size=4),
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
    assert g.to_json() == json.dumps(ref_to_dict(g), sort_keys=True).encode()


def test_writers_match_reference_across_chunks():
    rng = np.random.default_rng(0)
    rows = CHUNK + 7
    edges = rng.integers(-2**31, 2**31, size=(rows, 3), dtype=np.int64).astype(np.int32)
    edges[:, 0] = rng.integers(1, 10**rng.integers(1, 10, rows))  # varying widths per chunk
    g = LayeredGraph.from_columns([4, 4], edges, rng.integers(0, 3, rows).astype(np.uint16),
                                  ("fixed", "referee", "player:10"))
    assert g.to_json() == json.dumps(ref_to_dict(g), sort_keys=True).encode()
    n = 2**31 - 1
    us, vs = (rng.integers(1, n, rows, endpoint=True) for _ in range(2))
    stream = EdgeStream.from_columns(n, True, us, vs, g.tag_ids, g.tag_names)
    assert dump_stream(stream) == ref_dump_stream(stream)
    pieces = list(stream_text(stream))  # the header, then a piece per chunk
    assert len(pieces) == 3 and b"".join(pieces).decode() == ref_dump_stream(stream)


@pytest.mark.parametrize("tagged", [False, True], ids=["no-tags", "tags"])
@pytest.mark.parametrize("rows", [0, 1, 3, 4, 5, 8, 9])
def test_graph_json_chunks_join_to_the_payload(rows, tagged, monkeypatch):
    # four rows a chunk: the edge and tag arrays each lose their trailing
    # separator from their last chunk, however the rows fall into chunks
    monkeypatch.setattr("permlab.codec.CHUNK", 4)
    rng = np.random.default_rng(rows)
    edges = rng.integers(1, 10**rng.integers(1, 10, rows), dtype=np.int64).repeat(3).reshape(rows, 3)
    ids = rng.integers(0, 3 if tagged else 1, rows).astype(np.uint16)
    g = LayeredGraph.from_columns([4, 4], edges.astype(np.int32), ids, ("fixed", "referee", "player:1"))
    chunks = list(g.json_chunks())
    assert b"".join(chunks) == g.to_json() == json.dumps(ref_to_dict(g), sort_keys=True).encode()
    per_array = -(-rows // 4)
    assert len(chunks) == 3 + per_array + (2 + per_array if ids.any() else 0)


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
    with pytest.raises(ValueError, match=f"^tag {re.escape(repr(bad))} "):
        stream_text(stream)  # before a byte is written


BAD_TAGS = {"non-ASCII": "ñ", "quote": '"', "backslash": "\\", "comma": ",", "bracket": "]",
            "space": "a b", "tab": "\t", "empty": ""}


@pytest.mark.parametrize("bad", list(BAD_TAGS.values()), ids=list(BAD_TAGS))
def test_tags_outside_the_alphabet_are_neither_written_nor_read(bad):
    refused = f"^tag {re.escape(repr(bad))} is not a non-empty run of ASCII letters"
    with pytest.raises(ValueError, match=refused):
        LayeredGraph([1, 1], [(1, 1, 1)] * 2, [bad, "a"]).to_json()
    with pytest.raises(ValueError, match=refused):
        LayeredGraph([1, 1], [(1, 1, 1)] * 2, [bad, "a"]).json_chunks()  # before a byte is made
    with pytest.raises(ValueError, match=refused):
        dump_stream(EdgeStream(1, True, [(1, 1)] * 2, [bad, "a"]))
    # the bytes that writers allowing the tag would write: json.dumps's, and the tag as is
    good = LayeredGraph([1, 1], [(1, 1, 1)] * 2, ["b", "a"]).to_json()
    graph = good.replace(b'"b"', json.dumps(bad).encode())
    lo = graph.index(b'"tags": [') + len(b'"tags": [')
    head = f"{MAGIC}\n1 2 1\n".encode()
    stream = head + f"1 1 {bad}\n1 1 a\n".encode()
    for read, data, lo, hi in ((LayeredGraph.from_json, graph, lo, lo + len(json.dumps(bad))),
                               (parse_stream, stream, len(head), stream.index(b"\n", len(head)))):
        with pytest.raises(ValueError, match=r"^byte \d+: ") as err:
            read(data)
        assert lo <= int(str(err.value).split()[1][:-1]) <= hi, str(err.value)


def test_dump_stream_ignores_unused_tag_names():
    one = np.array([1, 2], dtype=np.int32)
    stream = EdgeStream.from_columns(3, True, one, one + 1, np.zeros(2, dtype=np.uint16),
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
    with pytest.raises(ValueError, match=r"^n=-1 is negative$"):
        EdgeStream(-1, False, [])


def test_list_constructors_build_one_tag_table():
    # names are numbered in order of first appearance, ids are uint16
    ids, names = tag_table(["b", "a", "b", "c"])
    assert ids.tolist() == [0, 1, 0, 2] and ids.dtype == np.uint16 and names == ("b", "a", "c")
    stream = EdgeStream(3, True, [(1, 2), (2, 3)], ["b", "a"])
    assert stream.tag_names == ("b", "a") and stream.tag_ids.dtype == np.uint16
    many = [f"t{i}" for i in range(1 << 16 | 1)]
    assert len(tag_table(many[:-1])[1]) == 1 << 16
    with pytest.raises(ValueError, match="^at most 65536 distinct tags$"):
        tag_table(many)
    with pytest.raises(ValueError, match="^at most 65536 distinct tags$"):
        LayeredGraph([1, 1], [(1, 1, 1)] * len(many), many)
    with pytest.raises(ValueError, match="^at most 65536 distinct tags$"):
        EdgeStream(1, True, [(1, 1)] * len(many), many)
    for bad in (5, None, b"a"):
        with pytest.raises(TypeError, match="^tags must be strings$"):
            EdgeStream(3, True, [(1, 2)], [bad])
        with pytest.raises(TypeError, match="^tags must be strings$"):
            LayeredGraph([1, 1], [(1, 1, 1)], [bad])


def test_parse_stream_reads_at_most_65536_tags():
    # stream tag ids are uint16, as in every graph; gen never writes more names
    def text(tags):
        return f"{MAGIC}\n1 {tags} 1\n".encode() + b"".join(b"1 1 t%d\n" % i for i in range(tags))

    stream = parse_stream(text(1 << 16))
    assert stream.tag_ids.dtype == np.uint16 and stream.tag_names[-1] == "t65535"
    with pytest.raises(ValueError, match="^at most 65536 distinct tags$"):
        parse_stream(text(1 << 16 | 1))


# ---------------------------------------------------------------------------
# artifact readers: the bytes the writers give, and nothing else


def assert_same_graph(got, want):
    assert (got.layers, got.edges.tolist(), got.tags) == (want.layers, want.edges.tolist(), want.tags)
    assert got.edges.dtype == np.int32 and got.tag_ids.dtype == np.uint16


@settings(deadline=None, max_examples=80)
@given(raw_graphs())
@example(LayeredGraph.from_columns(
    [3], np.array(EXTREMES[:3 * (len(EXTREMES) // 3)], dtype=np.int32).reshape(-1, 3),
    np.arange(len(EXTREMES) // 3, dtype=np.uint16) % 2, ("fixed", "referee")))
@example(LayeredGraph.from_columns(
    [2], np.array([[1, -2, 3]] * 3, dtype=np.int32), np.array([0, 1, 2], dtype=np.uint16), WORDS[3:]))
@example(LayeredGraph([2], [], []))
@example(LayeredGraph([2, 2], [(1, 1, 2), (1, 2, 1)]))
def test_from_json_matches_reference(g):
    text = g.to_json()
    got, rest = LayeredGraph.from_json(text)
    assert rest == {}
    assert_same_graph(got, ref_from_json(text))


@settings(deadline=None, max_examples=40)
@given(raw_graphs(), st.randoms(use_true_random=False))
def test_from_json_reads_documents_in_any_key_order(g, rnd):
    def shuffled(d):
        keys = list(d)
        rnd.shuffle(keys)
        return {k: d[k] for k in keys}

    doc = {"kind": "permgraph", "m": 2, "b": 2, "k": 2, "p": 1, "sigma": [2, 1],
           "graph": shuffled(ref_to_dict(g))}
    text = json.dumps(shuffled(doc)) + rnd.choice(["", "\n"])
    got, rest = LayeredGraph.from_json(text.encode())
    assert_same_graph(got, ref_from_json(json.dumps(doc["graph"])))
    del doc["graph"]
    assert rest == doc and list(rest) == [k for k in json.loads(text) if k != "graph"]


def test_from_json_reads_across_windows():
    rng = np.random.default_rng(1)
    rows = 3 * WINDOW // 9  # past three read windows, even for the tag array
    edges = rng.integers(-2**31, 2**31, size=(rows, 3), dtype=np.int64).astype(np.int32)
    names = ("fixed", "referee", "player:10", "x" * 40)
    g = LayeredGraph.from_columns([4, 4], edges, rng.integers(0, 4, rows).astype(np.uint16), names)
    got, _ = LayeredGraph.from_json(g.to_json())
    assert (got.edges == g.edges).all() and got.tags == g.tags
    n = 2**31 - 1
    stream = EdgeStream.from_columns(n, True, *(rng.integers(1, n, rows, endpoint=True) for _ in "uv"),
                                     g.tag_ids, names)
    back = parse_stream(dump_stream(stream))
    assert (back.us == stream.us).all() and (back.vs == stream.vs).all() and back.tags == stream.tags


def test_token_ids_are_exact_when_tokens_tie_on_length_and_leading_words():
    # pairs that differ only past their first 8 or 16 bytes, and only in their last byte
    names = ("player:1a", "player:1b", "player:10", "x" * 16 + "1", "x" * 16 + "2", "x" * 17, "a")
    ids = np.array([1, 0, 2, 1, 5, 3, 4, 0, 0, 2, 6, 4, 3], dtype=np.uint16)
    edges = np.ones((len(ids), 3), dtype=np.int32)
    g = LayeredGraph.from_columns([1, 1], edges, ids, names)
    stream = EdgeStream.from_columns(1, True, edges[:, 1], edges[:, 2], ids, names)
    for got in LayeredGraph.from_json(g.to_json())[0], parse_stream(dump_stream(stream)):
        assert got.tags == g.tags
        assert got.tag_names == tuple(dict.fromkeys(g.tags))  # numbered by first appearance


# tags that share a first 8-byte word and differ in length, and tags past 8 bytes
SHARED = ("player:1", "player:12", "player:", "player:1x", "referee", "fixed", "x" * 9, "x" * 17)


def read_in_small_windows(text, read):
    """read(text) with read windows of about 64 bytes, and the number of
    tokens that each call of the tag ids' sort path was given."""
    sorted_tokens = []
    real = codec._Tags._sorted

    def spy(self, buf, words, base, starts, ends):
        sorted_tokens.append(len(starts))
        return real(self, buf, words, base, starts, ends)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "WINDOW", 64)
        mp.setattr(codec._Tags, "_sorted", spy)
        return read(text), sorted_tokens


def test_tag_ids_are_looked_up_then_sorted_across_windows():
    # known tags are looked up in later windows; a tag first seen there, and
    # every tag past 8 bytes, goes through the sort path
    tags = ["referee"] * 12 + ["fixed"] * 12 + ["player:1"] * 6 + list(SHARED) * 3 + ["player:1"] * 6
    edges = [(1, i % 7 + 1, (5 * i) % 7 + 1) for i in range(len(tags))]
    g = LayeredGraph([7, 7], edges, tags)
    stream = EdgeStream(7, True, [e[1:] for e in edges], tags)
    for text, read, want in ((g.to_json(), lambda t: LayeredGraph.from_json(t)[0], ref_from_json(g.to_json())),
                             (dump_stream(stream), parse_stream, ref_parse_stream(dump_stream(stream)))):
        got, sorted_tokens = read_in_small_windows(text, read)
        assert np.asarray(got.edges).tolist() == np.asarray(want.edges).tolist() and got.tags == want.tags
        assert got.tag_names == tuple(dict.fromkeys(tags))  # numbered by first appearance
        # "fixed" and "player:1" are first seen in later windows than "referee",
        # and many tokens are found by the lookup alone
        assert len(sorted_tokens) >= 3 and sum(sorted_tokens) < len(tags) // 2


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(SHARED), st.integers(1, 2**31 - 1), st.booleans()),
                min_size=1, max_size=40))
def test_small_windows_read_mixed_tags_and_signs(rows):
    # each row's int is negative or not, so some windows hold a "-" and some none
    tags = [t for t, _, _ in rows]
    g = LayeredGraph([2], [(1, -v if neg else v, 1) for _, v, neg in rows], tags)
    got, _ = read_in_small_windows(g.to_json(), LayeredGraph.from_json)
    assert_same_graph(got[0], ref_from_json(g.to_json()))
    stream = EdgeStream(2**31 - 1, False, [(v, 1) for _, v, _ in rows], tags)
    got, _ = read_in_small_windows(dump_stream(stream), parse_stream)
    want = ref_parse_stream(dump_stream(stream))
    assert (got.n, got.edges, got.tags) == (want.n, want.edges, want.tags)


def test_stream_windows_with_and_without_negative_ints():
    text = dump_stream(EdgeStream(9, True, [(i % 9 + 1, 1) for i in range(40)], None))
    lines = text.splitlines(keepends=True)
    bad = "".join(lines[:30]) + "-3 1\n" + "".join(lines[31:])  # a "-" only in a late window
    messages = []
    for read in (parse_stream, ref_parse_stream):
        with pytest.raises(ValueError) as err:
            read_in_small_windows(bad, read)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "edge (-3,1) outside [1,9]"


@pytest.mark.parametrize("lines, count", [(5, 3), (3, 5), (4, 0), (0, 2), (4, -1), (4, 10**15), (40, 39)])
@pytest.mark.parametrize("bad", [False, True])
@pytest.mark.parametrize("small", [False, True])
def test_parse_stream_names_a_wrong_count_first(lines, count, bad, small):
    body = [f"{i + 1} {i + 2}\n" for i in range(lines)]
    if bad and body:
        body[len(body) // 2] = "1 x\n"  # a line dump_stream would not write
    text = f"{MAGIC}\n50 {count} 1\n" + "".join(body)
    message = f"expected {count} edges, found {lines}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ref_parse_stream(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_in_small_windows(text, parse_stream) if small else parse_stream(text)


def test_a_wrong_count_is_named_before_too_many_tags():
    tags = [f"t{i}" for i in range(1 << 16 | 1)]
    text = f"{MAGIC}\n1 {len(tags) + 1} 1\n" + "".join(f"1 1 {t}\n" for t in tags)
    with pytest.raises(ValueError, match=f"^expected {len(tags) + 1} edges, found {len(tags)}$"):
        parse_stream(text)
    doc = json.dumps({"edges": [[1, 1, 1]] * (len(tags) - 1), "layers": [1, 1], "tags": tags})
    with pytest.raises(ValueError, match=f"more tags than the {len(tags) - 1} edges$"):
        LayeredGraph.from_json(doc)


def test_read_rows_fills_the_columns_exactly():
    # rows past the columns are named at the first of them, missing rows at the end
    text = b"1 2\n3 4\n5 6\n"
    for size, offset, message in ((2, 8, "more than 2 rows"), (4, 12, "3 rows, not 4")):
        cols = [np.empty(size, dtype=np.int32) for _ in range(2)]
        with pytest.raises(FormatError, match=f"^byte {offset}: {message}$"):
            codec.read_rows(text, 0, len(text), (b"", b" ", b"\n"), cols)


@settings(deadline=None, max_examples=60)
@given(streams())
@example(EdgeStream(3, False, [], None))
@example(EdgeStream(3, True, [(1, 2)], ["a.b-c_d"]))
@example(EdgeStream(2**31 - 1, False, [(2**31 - 1, 1), (10**9, 99999999)], None))
def test_parse_stream_matches_reference(stream):
    text = dump_stream(stream)
    got, want = parse_stream(text), ref_parse_stream(text)
    assert (got.n, got.directed, got.edges, got.tags) == (want.n, want.directed, want.edges, want.tags)
    assert parse_stream(text.encode()).edges == got.edges


def first_number(data, at):
    """The offset and text of the first integer at or after offset at."""
    match = re.compile(rb"-?\d+").search(data, at)
    return match.start(), match.group()


def mutations(graph, stream):
    """(artifact, name, mutated bytes, first offset of the field it changes,
    first changed offset); a reader may name either offset or one between."""
    out = []

    def edit(art, name, data, at, old, new):
        assert data[at:at + len(old)] == old
        bad = data[:at] + new + data[at + len(old):]
        out.append((art, name, bad, at, _first_difference(bad, data)))

    body = stream.index(b"\n", stream.index(b"\n") + 1) + 1
    for art, data, start in (("graph", graph, graph.index(b'"edges": [[')), ("stream", stream, body)):
        at, num = first_number(data, start)
        sep = data.index(b" ", at)
        edit(art, "doubled space", data, sep, b" ", b"  ")
        edit(art, "leading zero", data, at, num, b"0" + num)
        edit(art, "plus sign", data, at, num, b"+" + num)
        edit(art, "float", data, at, num, num + b".0")
        edit(art, "int32 overflow", data, at, num, b"2147483648")
        crlf = data.replace(b"\n", b"\r\n")
        out.append((art, "CRLF", crlf, data.index(b"\n"), data.index(b"\n")))
    edit("stream", "no final newline", stream, len(stream) - 1, b"\n", b"")
    edit("graph", "doubled space in the skeleton", graph, graph.index(b'"m": '), b'"m": ', b'"m":  ')
    tags = graph.index(b'"tags": [')
    end = graph.index(b'"]', tags) + 1
    last = graph.rindex(b", ", tags, end)
    out.append(("graph", "tag array one entry short", graph[:last] + graph[end:], last, last))
    return out


def _first_difference(a, b):
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    from permlab.cli import main

    out = tmp_path_factory.mktemp("gen")
    assert main(["gen", "cross", "--m", "4", "--b", "2", "--seed", "5", "--out", str(out)]) == 0
    return (out / "graph.json").read_bytes(), (out / "stream.txt").read_bytes()


def test_readers_accept_the_writers_bytes(artifacts):
    graph, stream = artifacts
    g, doc = LayeredGraph.from_json(graph)
    assert doc["kind"] == "permgraph" and extract_permutation(g, 4) == sigma_cross(4)
    assert_same_graph(g, ref_from_dict(json.loads(graph)["graph"]))
    got, want = parse_stream(stream), ref_parse_stream(stream.decode())
    assert (got.n, got.edges, got.tags) == (want.n, want.edges, want.tags)


def test_readers_name_the_offset_of_each_mutation(artifacts, tmp_path, capsys):
    from permlab.cli import main

    cases = mutations(*artifacts)
    assert len(cases) == 15
    for art, name, bad, lo, hi in cases:
        read = LayeredGraph.from_json if art == "graph" else parse_stream
        with pytest.raises(ValueError, match=r"^byte \d+: ") as err:
            read(bad)
        assert lo <= int(str(err.value).split()[1][:-1]) <= hi, (name, str(err.value))
        path = tmp_path / f"{art}-{name}"
        path.write_bytes(bad)
        assert main(["verify", str(path)]) == 1, name
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == {str(path): [f"unreadable: {err.value}"]}, name


@pytest.mark.parametrize("art", ["graph", "stream"])
@pytest.mark.parametrize("field", ["int", "tag"])
def test_readers_refuse_nul_bytes(artifacts, art, field):
    # the formatter writes no NUL, so a NUL anywhere fails the reader's check:
    # in an int field at the NUL, in a tag at the tag's first byte, since a
    # token that is no tag is formatted as nothing
    graph, stream = artifacts
    data, read = (graph, LayeredGraph.from_json) if art == "graph" else (stream, parse_stream)
    if art == "graph":
        key = b'"edges": [[' if field == "int" else b'"tags": ["'
        start = graph.index(key) + len(key)
    else:
        body = stream.index(b"\n", stream.index(b"\n") + 1) + 1
        start = body if field == "int" else stream.rindex(b" ", body, stream.index(b"\n", body)) + 1
    assert data[start:start + 1].isalnum()
    bad = data[:start + 1] + b"\0" + data[start + 1:]
    with pytest.raises(FormatError) as err:
        read(bad)
    assert err.value.offset == (start + 1 if field == "int" else start)


@pytest.mark.parametrize("text, message", [
    ('{"layers": [2], "edges": [[1, 1, 1], [1, 1]]}', "byte 42: expected b', 1]'"),
    ('{"graph": {"layers": [2], "edges": []}, "x": NaN}', "NaN and Infinity"),
    ('{"graph": {"layers": [2], "edges": [], "tags": null}}', '"tags" arrays must be entries'),
    ('{"graph": {"layers": [2]}, "x\\"edges": []}', '"edges" and "tags" arrays must be entries'),
    ('{"layers": [2], "edges": [[1, 1, 1]]', "byte 36: Expecting ',' delimiter"),
    ('{"layers": [2], "edges": [[1, 1, 1]}', "byte 25: edge array has no end"),
    ('{"layers": [2], "edges": [], "tags": ["a}', "byte 37: tag array has no end"),
    ('{"layers": [2], "edges": [[1, 1, 1]], "tags": ["\\u00F1"]}', "byte 48: expected b'\"'"),
    ('{"layers": [2], "edges": [[1, 1, 1]], "tags": ["\\q"]}', "byte 48: expected b'\"'"),
    ('{"layers": [2], "edges": [[1, 1, 1]], "tags": [1]}', "byte 47: expected b'\"1\"'"),
    ('{"layers": [2], "edges": [[1, 1, 1]], "tags": ["a", "b"]}', "byte 52: more tags than the 1 edges"),
    ('{"layers": [2], "edges": [[1, 1, 1]], "tags": []}', "byte 47: 0 tags for 1 edges"),
    ('{"layers": [2], "edges": [[1, 1, 1]], "tags": ["a"], "é": 1}', "byte 54: not ASCII"),
])
def test_from_json_rejects_other_documents(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LayeredGraph.from_json(text.encode())


@settings(deadline=None, max_examples=200)
@given(st.text(alphabet="[]1, ", max_size=40), st.integers(1, 9))
def test_edge_array_end_is_the_first_double_bracket(text, window):
    # one windowed pass finds what a search for "]]" and a count of "]" find,
    # also for a "]]" across two windows
    data = b'{"edges": [' + text.encode()
    start = len(b'{"edges": ')
    end = start + 1 if data[start:start + 2] == b"[]" else data.find(b"]]", start) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("permlab.graphs.WINDOW", window)
        if end == 0:
            with pytest.raises(ValueError, match=f"^byte {start}: edge array has no end$"):
                _edge_array_end(data, start)
        else:
            assert _edge_array_end(data, start) == (end, data.count(b"]", start + 1, end))
