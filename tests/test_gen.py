import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlab.blocks import multi_block
from permlab.gen import (
    MAX_K,
    MAX_VERTICES,
    GenParams,
    _bounds,
    _count_floor,
    _count_general,
    _count_simple,
    _factors,
    _filled,
    _layer_plan,
    default_params,
    gen_general,
    gen_simple,
    layout,
    sample_simple,
    vertex_count,
)
from permlab.graphs import basic, concat_all, extract_permutation
from permlab.matching import sigma_cross
from permlab.perms import (
    compose,
    identity,
    inverse,
    is_simple,
    join,
    lex_partition,
    random_perm,
    random_simple,
    swap_perm,
    vec,
)
from permlab.sortnet import build_sort_network, depth_floor


def fake_simple_from_core(sigmas, params):
    """Replay reference: the same player matrices with the lexicographically
    first referee inputs (all row indices 1, matching columns 1..r/2,
    identity shift)."""
    if params.p != 1:
        raise ValueError("fake replay is built for one-pass instances")
    grs = params.family
    L = tuple(1 for _ in range(params.k))
    M = tuple(tuple(range(1, grs.r // 2 + 1)) for _ in range(params.k))
    return concat_all([*multi_block(grs, sigmas, L, M, params.b), basic(identity(params.m), "referee")])


def player_edges(g):
    return sorted(
        (li, u, v, tag)
        for (li, u, v), tag in zip(g.edges, g.tags)
        if tag.startswith("player:")
    )


def test_simple_lex_p1_sound():
    params = default_params(8, 2, k=2, p=1)
    P = lex_partition(8, 2)
    rng = random.Random(0)
    for _ in range(20):
        rho = random_simple(lex_partition(8, 2), rng)
        g = gen_simple(rho, P, params, rng)
        assert extract_permutation(g, 8) == rho


def test_simple_nonlex_p1_sound():
    params = default_params(8, 2, k=2, p=1)
    # a non-lex equipartition of [8] into blocks of 2
    P = ((1, 5), (2, 6), (3, 7), (4, 8))
    rng = random.Random(1)
    for _ in range(10):
        # rho must permute within P's groups: build from a lex-simple seed
        rho_lex = random_simple(lex_partition(8, 2), rng)
        s = swap_perm(P)
        rho = compose(inverse(s), compose(rho_lex, s))
        g = gen_simple(rho, P, params, rng)
        assert extract_permutation(g, 8) == rho


def test_general_sound():
    params = default_params(8, 2, k=2, p=1)
    rng = random.Random(2)
    for _ in range(15):
        sigma = random_perm(8, rng)
        g = gen_general(sigma, params, rng)
        assert extract_permutation(g, 8) == sigma


def test_p2_simple_and_general_sound():
    params = default_params(8, 2, k=2, p=2)
    rng = random.Random(3)
    P = lex_partition(8, 2)
    for _ in range(3):
        rho = random_simple(lex_partition(8, 2), rng)
        g = gen_simple(rho, P, params, rng)
        assert extract_permutation(g, 8) == rho
    for _ in range(2):
        sigma = random_perm(8, rng)
        g = gen_general(sigma, params, rng)
        assert extract_permutation(g, 8) == sigma


def test_vertex_count_closed_forms():
    p1 = default_params(16, 4, k=2, p=1)
    n_rs = 2 * 16 // 4
    assert vertex_count(p1, general=False) == 6 * 2 * n_rs * 4 + 2 * 16
    assert vertex_count(p1, general=False) == 416
    assert vertex_count(p1, general=True) == 4256
    p2 = default_params(8, 2, k=2, p=2)
    assert vertex_count(p2, general=False) == 20416
    assert vertex_count(p2, general=True) == 122656


def test_vertex_count_matches_built_graphs():
    rng = random.Random(4)
    for m, b, k, p in [(8, 2, 2, 1), (16, 4, 2, 1), (8, 2, 1, 1), (8, 2, 2, 2)]:
        params = default_params(m, b, k=k, p=p)
        g = gen_simple(random_simple(lex_partition(m, b), rng), lex_partition(m, b), params, rng)
        assert g.vertex_count == vertex_count(params, general=False)
        gg = gen_general(random_perm(m, rng), params, rng)
        assert gg.vertex_count == vertex_count(params, general=True)


def test_count_floor_is_a_lower_bound():
    for m, b in [(2, 2), (4, 2), (6, 3), (8, 2), (8, 4), (12, 3), (16, 4), (16, 16)]:
        for k in (1, 2, 3):
            for p in (1, 2, 3):
                floor = _count_floor(m, k, p)
                if floor <= MAX_VERTICES:
                    assert floor <= _count_simple(m, b, k, p) <= _count_general(m, b, k, p)
                    assert floor * depth_floor(m, b) <= _count_general(m, b, k, p)
                assert floor <= _count_floor(m, k, p + 1)
    assert _count_floor(8, 2, 1) == vertex_count(default_params(8, 2, k=2, p=1), general=False)
    # the general floor's factor: every network layer gives at least one piece
    for b in range(2, 9):
        for m in range(b, 65, b):
            assert len(_layer_plan(m, b)[0]) >= depth_floor(m, b)


@pytest.mark.parametrize("m, b, k, p", [(8, 2, 2, 40), (8, 2, 2, 10**9), (10**6, 2, 2, 1),
                                        (4, 2, 10**9, 1), (64, 2, MAX_K, 1), (700_000, 2, 1, 1)])
def test_vertex_count_refuses_without_networks(m, b, k, p, monkeypatch):
    def refuse(*args):
        raise AssertionError("layer plan built")

    monkeypatch.setattr("permlab.gen._layer_plan", refuse)
    if k > MAX_K:  # more players than tag ids: refused as the parameters are built
        with pytest.raises(ValueError, match=f"k must be at most {MAX_K}"):
            default_params(m, b, k=k, p=p)
        return
    for general in (False, True):
        params = default_params(m, b, k=k, p=p)
        if general or _count_floor(m, k, p) > MAX_VERTICES:
            with pytest.raises(ValueError, match=f"at least \\d+ vertices, cap is {MAX_VERTICES}"):
                vertex_count(params, general=general)
        else:  # a one-pass simple count needs no plan, and 700,000 wires fit the cap
            assert vertex_count(params, general=False) == _count_simple(m, b, k, p)


def test_vertex_count_refuses_an_exact_count_over_the_cap():
    # m=64 b=2 k=2 p=3 passes the floor (839,424 general, 139,904 simple)
    # but its exact counts are over the cap
    params = default_params(64, 2, k=2, p=3)
    assert _count_floor(64, 2, 3) * depth_floor(64, 2) == 839_424
    with pytest.raises(ValueError, match=f"^sample would need 3053522048 vertices, cap is {MAX_VERTICES}$"):
        vertex_count(params, general=True)
    with pytest.raises(ValueError, match=f"^sample would need 145405568 vertices, cap is {MAX_VERTICES}$"):
        sample_simple(identity(64), lex_partition(64, 2), params, random.Random(0))


def test_nonlex_layer_adds_wrapper():
    params = default_params(8, 2, k=2, p=1)
    rng = random.Random(5)
    P = ((1, 5), (2, 6), (3, 7), (4, 8))
    s = swap_perm(P)
    rho = compose(inverse(s), compose(random_simple(lex_partition(8, 2), rng), s))
    g = gen_simple(rho, P, params, rng)
    base = vertex_count(params, general=False)
    assert g.vertex_count == base + 4 * 8


def test_matched_seeds_share_player_edges():
    params = default_params(8, 2, k=2, p=1)
    P = lex_partition(8, 2)
    rng1 = random.Random(77)
    rng2 = random.Random(77)
    rho1 = (2, 1, 4, 3, 6, 5, 8, 7)
    rho2 = identity(8)
    g1 = gen_simple(rho1, P, params, rng1)
    g2 = gen_simple(rho2, P, params, rng2)
    assert player_edges(g1) == player_edges(g2)
    assert g1.edges.tolist() != g2.edges.tolist()  # referee routing must differ


def test_matched_seeds_share_player_edges_general_p2():
    params = default_params(8, 2, k=2, p=2)
    g1 = gen_general((2, 1, 4, 3, 6, 5, 8, 7), params, random.Random(5))
    g2 = gen_general(identity(8), params, random.Random(5))
    assert player_edges(g1) == player_edges(g2)


def test_fake_replay_matches_player_view():
    params = default_params(8, 2, k=2, p=1)
    P = lex_partition(8, 2)
    rng = random.Random(9)
    rho = random_simple(lex_partition(8, 2), rng)
    g, core = sample_simple(rho, P, params, random.Random(11))
    fake = fake_simple_from_core(core["sigmas"], params)
    assert player_edges(fake) == player_edges(g)
    assert extract_permutation(g, 8) == rho
    # the fake graph realizes the lex-first core composition, generally != rho
    assert fake.vertex_count == vertex_count(params, general=False)


def test_fake_replay_rejects_multi_pass():
    params = default_params(8, 2, k=2, p=2)
    rng = random.Random(10)
    _, core = sample_simple(
        random_simple(lex_partition(8, 2), rng), lex_partition(8, 2), params, rng
    )
    with pytest.raises(ValueError):
        fake_simple_from_core(core["sigmas"], params)


def test_param_validation():
    with pytest.raises(ValueError):
        GenParams(m=8, b=3, k=2, p=1)  # 3 does not divide 16
    with pytest.raises(ValueError):
        GenParams(m=8, b=2, k=0, p=1)
    with pytest.raises(ValueError):
        GenParams(m=8, b=2, k=2, p=0)
    with pytest.raises(ValueError, match="m must be at least 1"):
        GenParams(m=0, b=2, k=2, p=1)
    with pytest.raises(ValueError, match="m must be at least 1"):
        GenParams(m=-4, b=2, k=2, p=1)
    # k + 2 tag names, each with a uint16 id
    with pytest.raises(ValueError, match=f"^k must be at most 65534 .*, got k=65535$"):
        GenParams(m=2, b=2, k=MAX_K + 1, p=1)
    # the last player's gadget
    g = _filled(np.array([2, 1], dtype=np.int32), np.array([2]), np.array([MAX_K + 1]), MAX_K)
    assert len(g.tag_names) == 1 << 16 and g.tags == [f"player:{MAX_K}"] * 2


def test_budget_enforced():
    params = GenParams(m=64, b=2, k=2, p=3)  # 3,053,522,048 vertices
    with pytest.raises(ValueError, match="vertices"):
        gen_general(random_perm(64, random.Random(0)), params, random.Random(0))


def plan_pieces(m, b):
    """_layer_plan's rows as (layer index, partition, moving wires, s, s^-1,
    wrapped): the partition's groups are the rows of s^-1 cut into b-runs,
    the moving wires are read off the mask."""
    return [(i, tuple(tuple(row[j:j + b]) for j in range(0, m, b)),
             {x for x, moves in enumerate(mask, start=1) if moves}, tuple(s), tuple(row), wrapped)
            for i, mask, s, row, wrapped in zip(*(a.tolist() for a in _layer_plan(m, b)))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(8, 2), (9, 3), (12, 4), (16, 4)]).flatmap(
    lambda mb: st.tuples(st.just(mb), st.permutations(range(1, mb[0] + 1)))))
def test_piece_split_does_not_depend_on_sigma(case):
    # the draw-order promise: the partitions of the piece split are those of
    # the identity's, so only the simple factors depend on sigma
    (m, b), sigma = case
    sigma = tuple(sigma)
    factors = [tuple(g) for g in _factors(np.array([sigma], dtype=np.int32), b)[0].tolist()]
    plan = plan_pieces(m, b)
    assert len(factors) == len(plan)
    assert all(is_simple(g, part) for (_, part, *_), g in zip(plan, factors))
    assert reduce(compose, factors) == sigma


@pytest.mark.parametrize("m, b", [(16, 4), (12, 3)])
def test_layer_plan_reads_the_network_alone(m, b, monkeypatch):
    # the plan is built from the sorting network's layers; no permutation
    # is decomposed for it
    def refuse(*args):
        raise AssertionError("decompose called")

    _layer_plan.cache_clear()
    monkeypatch.setattr("permlab.gen.decompose", refuse)
    plan = plan_pieces(m, b)
    monkeypatch.undo()
    layers = build_sort_network(m, b).layers[::-1]  # decompose's order, as test_sortnet pins
    assert sorted({i for i, *_ in plan}) == list(range(len(layers)))
    assert [i for i, *_ in plan] == sorted(i for i, *_ in plan)  # layer order kept
    for i, part, placed, s, s_inv, wrapped in plan:
        # each piece takes whole groups of its layer, in exact-b groups
        assert {len(g) for g in part} == {b} and sorted(x for g in part for x in g) == list(range(1, m + 1))
        assert all(set(g) <= placed or not set(g) & placed for g in layers[i])
        assert wrapped == (part != lex_partition(m, b))
        assert (s, s_inv) == (swap_perm(part), inverse(swap_perm(part)))  # the identity on Lex
    for i, layer in enumerate(layers):  # the pieces of a layer share out its moving wires
        wires = [x for j, _, placed, *_ in plan if j == i for x in placed]
        assert sorted(wires) == sorted(x for g in layer if len(g) >= 2 for x in g)


def test_target_vec_consistency():
    # the hidden target of a lex-simple rho is its group-wise vector
    params = default_params(8, 2, k=2, p=1)
    rng = random.Random(12)
    rho = random_simple(lex_partition(8, 2), rng)
    _, core = sample_simple(rho, lex_partition(8, 2), params, rng)
    from permlab.hph import recompute_gamma_star

    gstar = recompute_gamma_star(core["sigmas"], core["L"], core["M"])
    shifted = tuple(compose(g, w) for g, w in zip(gstar, core["gamma"]))
    assert join(shifted) == rho
    assert shifted == vec(rho, 2)


@pytest.mark.parametrize("p", [1, 2])
def test_sampling_decodes_its_draws_in_bulk(p, monkeypatch):
    # no draw is its own random call: no shuffle per matrix entry, no
    # randrange per row index, no sample per hypermatching row
    def refuse(*args, **kwargs):
        raise AssertionError("a random call per draw")

    for name in ("shuffle", "sample", "randrange", "_randbelow"):
        monkeypatch.setattr(random.Random, name, refuse)
    params = default_params(8, 2, k=2, p=p)
    g = gen_general((2, 1, 4, 3, 6, 5, 8, 7), params, random.Random(1))
    assert extract_permutation(g, 8) == (2, 1, 4, 3, 6, 5, 8, 7)
    P = ((1, 5), (2, 6), (3, 7), (4, 8))
    rho = (5, 6, 7, 8, 1, 2, 3, 4)
    assert extract_permutation(gen_simple(rho, P, params, random.Random(2)), 8) == rho
    g, core = sample_simple(rho, P, params, random.Random(3))
    assert extract_permutation(g, 8) == rho and len(core["M"]) == 2


@pytest.mark.parametrize("m, b, k, p", [(8, 2, 2, 1), (16, 4, 3, 1), (12, 3, 1, 2), (8, 2, 2, 2),
                                        (16, 4, 2, 2)])
def test_the_params_alone_fix_the_layout(m, b, k, p, monkeypatch):
    # (16, 4, 3, 1) and (12, 3, 1, 2) have wrapped (non-Lex) pieces; the
    # layout is read off a fill that makes no draw
    params = default_params(m, b, k=k, p=p)
    if (m, b) in ((16, 4), (12, 3)):
        assert _layer_plan(m, b)[4].any()

    def refuse(*args):
        raise AssertionError("the layout drew")

    layout.cache_clear()
    monkeypatch.setattr("permlab.gen.randbelow_many", refuse)
    want = layout(params)
    monkeypatch.undo()
    column = want.layer_column(np.empty(want.edges, dtype=np.int32))
    tags = [want.names[i] for i in want.tag_ids().tolist()]
    for sigma in (identity(m), sigma_cross(m), random_perm(m, random.Random(m + p))):
        for seed in range(2):
            g = gen_general(sigma, params, random.Random(seed))
            assert g.layers == want.layers() and g.vertex_count == vertex_count(params, general=True)
            assert g.edges[:, 0].tolist() == column.tolist()
            assert g.tags == tags
            assert want.problems(g) == []
