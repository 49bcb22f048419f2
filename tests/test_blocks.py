import random

import pytest

from permlab.blocks import (
    EdgeTuple,
    block,
    block_rho,
    edge_pick,
    encoded_rs,
    multi_block,
)
from permlab.graphs import GroupLayeredGraph, concat_all, extract_permutation
from permlab.hph import recompute_gamma_star, sample_core
from permlab.perms import compose, identity, join, match_aligned
from permlab.rs import RSGraph, trivial_rs
from reference_draws import random_perm_matrix


def multi_block_rho(grs, sigs, L, M, b):
    """Reference: the fold of the per-block closed forms, block 1 outermost."""
    out = None
    for a in range(len(sigs)):
        rho = block_rho(grs, sigs[a], EdgeTuple(L[a], tuple(M[a])), b)
        out = rho if out is None else compose(out, rho)
    return out


def test_encoded_rs_tiny():
    grs = trivial_rs(2, 2)
    sig = (((2, 1), (1, 2)),)
    g = encoded_rs(grs, sig, 2)
    assert set(g.tuples) == {(1, 1, 1, (2, 1)), (1, 2, 2, (1, 2))}
    assert g.w == 2 and g.b == 2


def test_encoded_rs_tuple_count():
    grs = trivial_rs(4, 2)
    rng = random.Random(0)
    sig = random_perm_matrix(grs.t, grs.r, 3, rng)
    g = encoded_rs(grs, sig, 3)
    assert len(g.tuples) == grs.t * grs.r


def test_edge_pick_worked_example():
    # one matching with lefts (1,3) and rights (4,6) inside [6]
    grs = RSGraph(6, 2, 1, (((1, 4), (3, 6)),))
    sl, sr = edge_pick(grs, EdgeTuple(1, (1, 2)))
    assert sl == (1, 3, 2, 4, 5, 6)
    assert sr == (3, 4, 5, 1, 6, 2)


def test_edge_pick_matches_definition():
    grs = trivial_rs(8, 4)
    rng = random.Random(1)
    for _ in range(20):
        ell = rng.randrange(1, grs.t + 1)
        edges = tuple(rng.sample(range(1, grs.r + 1), grs.r // 2))
        sl, sr = edge_pick(grs, EdgeTuple(ell, edges))
        half = grs.r // 2
        left_pairs = {(i, grs.left(ell, edges[i - 1])) for i in range(1, half + 1)}
        right_pairs = {(grs.right(ell, edges[i - 1]), i) for i in range(1, half + 1)}
        assert sl == match_aligned(left_pairs, grs.n_rs)
        assert sr == match_aligned(right_pairs, grs.n_rs)
        # sl routes slot i to the chosen left endpoint
        for i in range(1, half + 1):
            assert sl[i - 1] == grs.left(ell, edges[i - 1])


def test_block_shape_and_extraction():
    grs = trivial_rs(4, 2)
    b = 3
    rng = random.Random(2)
    sig = random_perm_matrix(grs.t, grs.r, b, rng)
    e = EdgeTuple(2, (1,))
    g = concat_all(block(grs, sig, e, b))
    assert g.layers == [grs.n_rs * b] * 6
    m = (grs.r // 2) * b
    assert extract_permutation(g, m) == block_rho(grs, sig, e, b)


def test_block_rho_formula():
    grs = trivial_rs(6, 2)
    b = 2
    rng = random.Random(3)
    sig = random_perm_matrix(grs.t, grs.r, b, rng)
    e = EdgeTuple(4, (2,))
    rho = block_rho(grs, sig, e, b)
    # group i is shifted by the matrix entry at the picked edge
    for i in range(1, (grs.r // 2) + 1):
        entry = sig[e.ell - 1][e.edges[i - 1] - 1]
        for a in range(1, b + 1):
            assert rho[(i - 1) * b + a - 1] == (i - 1) * b + entry[a - 1]


def test_block_edge_provenance():
    grs = trivial_rs(4, 2)
    rng = random.Random(4)
    sig = random_perm_matrix(grs.t, grs.r, 2, rng)
    g = concat_all(block(grs, sig, EdgeTuple(1, (2,)), 2, player_tag="player:7"))
    by_tag = {}
    for (li, _, _), tag in zip(g.edges, g.tags):
        by_tag.setdefault(tag, set()).add(li)
    # layer order: right gadget, junction, encoded, junction, left gadget
    assert by_tag["player:7"] == {3}
    assert by_tag["referee"] == {1, 5}
    assert by_tag["fixed"] == {2, 4}


def test_multi_block_single_reduces_to_block():
    grs = trivial_rs(4, 2)
    rng = random.Random(5)
    sig = random_perm_matrix(grs.t, grs.r, 2, rng)
    g1 = concat_all(multi_block(grs, [sig], [3], ((1,),), 2))
    g2 = concat_all(block(grs, sig, EdgeTuple(3, (1,)), 2))
    assert g1.layers == g2.layers and g1.edges.tolist() == g2.edges.tolist() and g1.tags == g2.tags


def test_multi_block_composes_blocks():
    # t=1 family: every path is forced, extraction is exact for any k
    grs = trivial_rs(4, 4)
    b, k = 2, 3
    rng = random.Random(6)
    sigs, L, M = sample_core(grs.r, grs.t, b, k, rng)
    g = concat_all(multi_block(grs, sigs, L, M, b))
    assert g.layers == [grs.n_rs * b] * (6 * k)
    m = (grs.r // 2) * b
    rho = extract_permutation(g, m)
    assert rho == multi_block_rho(grs, sigs, L, M, b)
    # independent oracle: fold the per-block permutations directly
    expect = identity(m)
    for a in range(k):
        expect = compose(
            expect, block_rho(grs, sigs[a], EdgeTuple(L[a], tuple(M[a])), b)
        )
    assert rho == expect


def test_multi_block_rho_folds_at_larger_t():
    # the algebraic fold needs no graph and holds for any family
    grs = trivial_rs(8, 4)
    b, k = 2, 3
    rng = random.Random(6)
    sigs, L, M = sample_core(grs.r, grs.t, b, k, rng)
    expect = identity((grs.r // 2) * b)
    for a in range(k):
        expect = compose(
            expect, block_rho(grs, sigs[a], EdgeTuple(L[a], tuple(M[a])), b)
        )
    assert multi_block_rho(grs, sigs, L, M, b) == expect


def test_multi_block_extraction_sound_or_detected_at_larger_t():
    # with t > 1 chained strays can merge; extraction must then raise, never
    # silently return a wrong permutation
    from permlab.graphs import ExtractionError

    grs = trivial_rs(8, 4)
    b, k = 2, 2
    m = (grs.r // 2) * b
    raised = 0
    for seed in range(10):
        rng = random.Random(seed)
        sigs, L, M = sample_core(grs.r, grs.t, b, k, rng)
        g = concat_all(multi_block(grs, sigs, L, M, b))
        try:
            rho = extract_permutation(g, m)
        except ExtractionError:
            raised += 1
            continue
        assert rho == multi_block_rho(grs, sigs, L, M, b)
    assert raised < 10  # at least one clean extraction in this sweep


def test_multi_block_realizes_join_of_gamma_star():
    grs = trivial_rs(4, 4)
    b, k = 2, 2
    for seed in range(8):
        rng = random.Random(seed)
        sigs, L, M = sample_core(grs.r, grs.t, b, k, rng)
        g = concat_all(multi_block(grs, sigs, L, M, b))
        m = (grs.r // 2) * b
        assert extract_permutation(g, m) == join(recompute_gamma_star(sigs, L, M))


def test_edge_tuple_validation():
    grs = trivial_rs(4, 2)
    with pytest.raises(ValueError):
        EdgeTuple(5, (1,)).validate(grs)
    with pytest.raises(ValueError):
        EdgeTuple(1, (1, 1)).validate(grs)


def test_p1_sample_is_plain_block():
    grs = trivial_rs(4, 2)
    rng = random.Random(9)
    sig = random_perm_matrix(grs.t, grs.r, 2, rng)
    e = EdgeTuple(2, (2,))

    # reference: each routing gadget moves whole groups of b, group i onto
    # group sigma(i), as a two-layer group graph
    def routed(sigma):
        tuples = [(1, i, sigma[i - 1], identity(2)) for i in range(1, len(sigma) + 1)]
        return GroupLayeredGraph(len(sigma), 2, 2, tuples).expand(tag="referee")

    g1 = concat_all(block(grs, sig, e, 2))
    sl, sr = edge_pick(grs, e)
    enc = encoded_rs(grs, sig, 2).expand(tag="player:1")
    g2 = concat_all([routed(sr), enc, routed(sl)])
    assert g1.edges.tolist() == g2.edges.tolist() and g1.tags == g2.tags
