"""Seed-deterministic samplers that hide a permutation in a layered graph.

gen_simple hides a permutation that only shuffles within the groups of an
equipartition: it plants the per-group permutations as the hidden composition
of a sampled communication instance (multi-block plus a shift gadget), so the
graph realizes rho while each player's edges depend on that player's matrix
alone. Non-Lex partitions are handled by conjugating with a relabeling and
wrapping the graph in two fixed basic layers. gen_general first splits an
arbitrary permutation into simple factors along a sorting network, then hides
each factor.

At p >= 2 the two routing gadgets of every block, and the shift gadget, are
themselves samples of the (p-1)-pass generator at the smaller size; the base
case replaces a routing gadget by its plain two-layer graph. Every level, at
every size m, uses the aligned-chunk RS family with r = n_rs = 2m/b, which
has a single matching (t = 1).

The sampling order inside one call is fixed: player matrices, row indices,
hypermatching, then any recursive samples, with the shift computed (never
drawn). The number of random draws therefore never depends on the hidden
permutation, so matched seeds give identical player edges for different
hidden permutations. Each sample is drawn as its chain of gadgets, in layer
order, and then written into one edge buffer.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .blocks import EdgeTuple, edge_pick, multi_block
from .graphs import LayeredGraph, basic, concat_all
from .hph import force_gamma, recompute_gamma_star, sample_core
from .perms import (
    Partition,
    Perm,
    compose,
    extend,
    inverse,
    is_simple,
    join,
    lex_partition,
    swap_perm,
    vec,
)
from .rs import RSGraph, trivial_rs
from .sortnet import build_sort_network, decompose, depth_floor

# multi_block, p_multi_block_sample and concat_all are not used here, but
# perfbench/tracing.py looks these names up on this module
p_multi_block_sample = multi_block

MAX_VERTICES = 20_000_000
MAX_K = (1 << 16) - 2  # the k + 2 tag names of _tag_names need uint16 ids

Swap = tuple[Perm, Perm] | None  # a relabeling onto Lex and its inverse, None for Lex


@dataclass(frozen=True)
class GenParams:
    """The four generator parameters, checked on construction."""

    m: int
    b: int
    k: int = 2
    p: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got m={self.m}")
        if self.b < 2:
            raise ValueError("b must be at least 2")
        if self.m % self.b:
            raise ValueError(f"hiding needs b | m, got m={self.m}, b={self.b}")
        if self.k < 1 or self.p < 1:
            raise ValueError("k and p must be at least 1")
        if self.k > MAX_K:
            raise ValueError(f"k must be at most {MAX_K} (one uint16 tag id per player), got k={self.k}")

    @property
    def family(self) -> RSGraph:
        """The aligned-chunk RS family at r = n_rs = 2m/b (t = 1)."""
        return trivial_rs(2 * self.m // self.b, 2 * self.m // self.b)


def default_params(m: int, b: int, k: int = 2, p: int = 1) -> GenParams:
    return GenParams(m, b, k, p)


# ---------------------------------------------------------------------------
# regularization: the network's layers have groups of size <= b plus idle
# wires, while hiding wants every group to have exactly b members. Pack the
# active groups into m/b bins of capacity b (first-fit decreasing), top the
# bins up with idle wires, and push groups that do not fit into a fresh
# sub-layer. Placement looks at group sizes only, so the split is the same
# for every permutation decomposed over the same network, and is cached.

def _regularize(P: Partition, b: int, m: int) -> list[tuple[Partition, frozenset[int]]]:
    """The exact-b partitions layer P is split into, each with the wires
    whose moves it takes (the rest it fixes)."""
    pending = sorted((g for g in P if len(g) >= 2), key=lambda g: (-len(g), g[0]))
    out: list[tuple[Partition, frozenset[int]]] = []
    if not pending:
        return [(lex_partition(m, b), frozenset())]
    while pending:
        bins: list[list[int]] = [[] for _ in range(m // b)]
        deferred = []
        for g in pending:
            for cell in bins:
                if b - len(cell) >= len(g):
                    cell.extend(g)
                    break
            else:
                deferred.append(g)
        placed = frozenset(x for cell in bins for x in cell)
        idle = iter(x for x in range(1, m + 1) if x not in placed)
        for cell in bins:
            cell.extend(islice(idle, b - len(cell)))
        part = tuple(sorted((tuple(sorted(cell)) for cell in bins), key=lambda g: g[0]))
        out.append((part, placed))
        pending = deferred
    return out


def _swap(part: Partition, m: int, b: int) -> Swap:
    """None for Lex, else the relabeling s carrying part onto Lex, and s^-1."""
    if part == lex_partition(m, b):
        return None
    s = swap_perm(part)
    return s, inverse(s)


@lru_cache(maxsize=64)
def _layer_plan(m: int, b: int) -> tuple[tuple[int, Partition, frozenset[int], Swap], ...]:
    """The pieces gen_general hides, in order, read off the sorting network
    alone: each piece's layer index in decompose's order (the network's
    layers reversed), its exact-b partition, the wires whose moves it takes,
    and _swap of its partition."""
    layers = reversed(build_sort_network(m, b).layers)
    return tuple((i, part, placed, _swap(part, m, b))
                 for i, P in enumerate(layers) for part, placed in _regularize(P, b, m))


def _pieces(sigma: Perm, b: int) -> list[tuple[Partition, Swap, Perm]]:
    """The simple factors gen_general hides, each with its exact-b partition
    and that partition's swap: decompose sigma along the sorting network,
    and split every layer's move as _layer_plan splits the layer."""
    m = len(sigma)
    gammas = decompose(sigma, b).gammas
    return [(part, swap, tuple(gammas[i][x - 1] if x in placed else x for x in range(1, m + 1)))
            for i, part, placed, swap in _layer_plan(m, b)]


# ---------------------------------------------------------------------------
# vertex accounting. Counts depend only on parameters. With n_rs*b = 2m a
# one-pass simple sample has 2m(6k+1) vertices (plus 4m when wrapped); at
# p >= 2 each of the k blocks keeps its two encoded layers (4m) and gains two
# recursive samples at size 2m, and the shift gadget becomes a recursive
# sample at size m.

def _count_simple(m: int, b: int, k: int, p: int) -> int:
    if p == 1:
        return 2 * m * (6 * k + 1)
    return 2 * k * (2 * m + _count_general(2 * m, b, k, p - 1)) + _count_general(m, b, k, p - 1)


@lru_cache(maxsize=256)
def _count_general(m: int, b: int, k: int, p: int) -> int:
    plan = _layer_plan(m, b)
    return len(plan) * _count_simple(m, b, k, p) + 4 * m * sum(swap is not None for *_, swap in plan)


def _count_floor(m: int, k: int, p: int) -> int:
    """A lower bound on _count_simple that builds no sorting network. Its
    recursion is linear in m: m * c_p with c_1 = 2(6k + 1) and
    c_p = 4k + (4k + 1) c_(p-1). It stops growing once it passes the cap.
    Every network layer gives at least one piece, so _count_general is at
    least depth_floor(m, b) times it."""
    c = 2 * (6 * k + 1)
    for _ in range(p - 1):
        if m * c > MAX_VERTICES:
            break
        c = 4 * k + (4 * k + 1) * c
    return m * c


def vertex_count(params: GenParams, general: bool) -> int:
    """Exact vertex count of any sample at these parameters, or ValueError
    if it is over MAX_VERTICES.

    For general=False this is the count for a Lex-simple input; hiding over a
    non-Lex partition adds 4m wrapper vertices on top. Parameters whose count
    is over the cap by _count_floor alone (times depth_floor for general
    counts) are refused before the layer plans, which build sorting networks
    at sizes up to m * 2^(p-1).
    """
    floor = _count_floor(params.m, params.k, params.p)
    if general:
        floor *= depth_floor(params.m, params.b)
    if floor > MAX_VERTICES:
        raise ValueError(f"sample would need at least {floor} vertices, cap is {MAX_VERTICES}")
    count = _count_general if general else _count_simple
    vertices = count(params.m, params.b, params.k, params.p)
    if vertices > MAX_VERTICES:
        raise ValueError(f"sample would need {vertices} vertices, cap is {MAX_VERTICES}")
    return vertices


# ---------------------------------------------------------------------------
# the fill. A sample is a chain of gadgets, each the two-layer graph of a
# permutation of its layer: a routing gadget at p = 1, a player's encoded RS
# layers (the family is one matching j -> j, so these are the gadget of the
# join of the matrix's row), or a fixed non-Lex wrapper. _fill_simple and
# _fill_general draw a sample and return its gadgets as (permutation, tag id)
# pairs in layer order, which is not draw order. _filled then writes the
# chain into one edge buffer, joining consecutive gadgets by identity
# junctions, as concat_all joins its parts.

FIXED, REFEREE = 0, 1  # tag ids; player a has id a + 1

Gadgets = list[tuple[array, int]]  # int32 permutations and their tag ids


def _tag_names(k: int) -> tuple[str, ...]:
    return ("fixed", "referee", *(f"player:{a}" for a in range(1, k + 1)))


def _filled(gadgets: Gadgets, k: int) -> LayeredGraph:
    """The chain of gadgets as one graph: edge run 2i is gadget i (layer
    2i + 1), run 2i + 1 the junction after it (layer 2i + 2)."""
    perms, tags = zip(*gadgets)
    sizes = np.fromiter(map(len, perms), dtype=np.int64, count=len(perms))
    runs = np.empty(2 * len(sizes) - 1, dtype=np.int64)
    runs[0::2] = sizes
    runs[1::2] = np.minimum(sizes[:-1], sizes[1:])
    starts = np.cumsum(runs) - runs
    edges = np.empty((int(runs.sum()), 3), dtype=np.int32)
    layer, u, v = edges.T
    layer.fill(0)
    layer[starts] = 1
    np.cumsum(layer, dtype=np.int32, out=layer)   # run r is layer r + 1
    u.fill(1)
    u[starts[1:]] -= runs[:-1]
    np.cumsum(u, dtype=np.int32, out=u)           # 1, 2, ... within each run
    v[:] = u                                      # junctions are identity matchings
    v[np.repeat(np.arange(len(runs)) % 2 == 0, runs)] = np.frombuffer(b"".join(perms), dtype=np.int32)
    run_tags = np.zeros(len(runs), dtype=np.uint16)
    run_tags[0::2] = tags
    return LayeredGraph.from_columns(np.repeat(sizes, 2).tolist(), edges, np.repeat(run_tags, runs),
                                     _tag_names(k))


def _fill_general(sigma: Perm, params: GenParams, rng: random.Random) -> Gadgets:
    """Draw a general sample hiding sigma: its pieces' gadgets, the piece
    drawn last traversed first."""
    samples = [_fill_simple(gamma, swap, params, rng)[0] for _, swap, gamma in _pieces(sigma, params.b)]
    return [gadget for sample in reversed(samples) for gadget in sample]


def _fill_simple(rho: Perm, swap, params: GenParams, rng: random.Random) -> tuple[Gadgets, dict]:
    """Draw a simple sample hiding rho, which is simple on Lex, or on the
    partition swap = (s, s^-1) carries onto Lex: its gadgets, and the
    sampled communication core."""
    b, k, p = params.b, params.k, params.p
    if swap is not None:
        s, s_inv = swap
        rho = compose(s, compose(rho, s_inv))
    grs = params.family
    sigmas, L, M = sample_core(grs.r, grs.t, b, k, rng)
    gamma = force_gamma(recompute_gamma_star(sigmas, L, M), vec(rho, b))

    def route(sigma: Perm) -> Gadgets:
        """A routing gadget; at p >= 2 a (p-1)-pass sample, whose player
        tags become "referee": it hides referee inputs."""
        if p == 1:
            return [(array("i", sigma), REFEREE)]
        sub = _fill_general(sigma, replace(params, m=len(sigma), p=p - 1), rng)
        return [(perm, min(tag, REFEREE)) for perm, tag in sub]

    # rng draw order: blocks a = 1..k (left route before right), shift last;
    # layer order: shift, blocks k..1, each left route, encoded layer, right route
    blocks = []
    for a in range(k):
        left, right = edge_pick(grs, EdgeTuple(L[a], M[a]))
        blocks.append([*route(extend(left, b)), (array("i", join(sigmas[a][0])), a + 2),
                       *route(extend(right, b))])
    gadgets = [*route(join(gamma)), *chain.from_iterable(reversed(blocks))]
    if swap is not None:
        gadgets = [(array("i", s), FIXED), *gadgets, (array("i", s_inv), FIXED)]
    return gadgets, {"sigmas": sigmas, "L": L, "M": M, "gamma": gamma}


def _simple_swap(rho: Perm, P: Partition, params: GenParams):
    """Check a simple sample's inputs; None if P is Lex, else (s, s^-1)."""
    m, b = params.m, params.b
    if len(rho) != m:
        raise ValueError(f"rho acts on [{len(rho)}], params say m={m}")
    canon = tuple(sorted((tuple(sorted(g)) for g in P), key=lambda g: g[0]))
    if not is_simple(rho, canon):
        raise ValueError("rho is not simple on the given partition")
    vertex_count(params, general=False)
    return _swap(canon, m, b)


def sample_simple(
    rho: Perm, P: Partition, params: GenParams, rng: random.Random
) -> tuple[list[LayeredGraph], dict]:
    """gen_simple's gadgets as two-layer parts in concat_all's order (the
    last is traversed first), plus the sampled communication core, for
    replay experiments."""
    gadgets, core = _fill_simple(rho, _simple_swap(rho, P, params), params, rng)
    names = _tag_names(params.k)
    return [basic(perm, names[tag]) for perm, tag in reversed(gadgets)], core


def gen_simple(rho: Perm, P: Partition, params: GenParams, rng: random.Random) -> LayeredGraph:
    gadgets, _ = _fill_simple(rho, _simple_swap(rho, P, params), params, rng)
    return _filled(gadgets, params.k)


def gen_general(sigma: Perm, params: GenParams, rng: random.Random) -> LayeredGraph:
    """Hide an arbitrary permutation: decompose along the sorting network,
    regularize each layer to exact-b groups, hide every factor, chained."""
    if len(sigma) != params.m:
        raise ValueError(f"sigma acts on [{len(sigma)}], params say m={params.m}")
    vertex_count(params, general=True)
    return _filled(_fill_general(sigma, params, rng), params.k)
