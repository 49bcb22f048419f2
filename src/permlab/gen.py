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
hidden permutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice

import numpy as np

from .blocks import basic_route, multi_block
from .graphs import LayeredGraph, basic, concat_all
from .hph import force_gamma, recompute_gamma_star, sample_core
from .perms import (
    Partition,
    Perm,
    compose,
    identity,
    inverse,
    is_simple,
    join,
    lex_partition,
    swap_perm,
    vec,
)
from .rs import RSGraph, trivial_rs
from .sortnet import decompose, depth_floor

# an alias kept because perfbench/tracing.py looks this name up on this module
p_multi_block_sample = multi_block

MAX_VERTICES = 20_000_000


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
# for every permutation decomposed over the same network.

def _regularize(P: Partition, gamma: Perm, b: int, m: int) -> list[tuple[Partition, Perm]]:
    pending = sorted((g for g in P if len(g) >= 2), key=lambda g: (-len(g), g[0]))
    out: list[tuple[Partition, Perm]] = []
    if not pending:
        return [(lex_partition(m, b), identity(m))]
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
        placed = {x for cell in bins for x in cell}
        idle = iter(x for x in range(1, m + 1) if x not in placed)
        for cell in bins:
            cell.extend(islice(idle, b - len(cell)))
        part = tuple(sorted((tuple(sorted(cell)) for cell in bins), key=lambda g: g[0]))
        sub = tuple(gamma[x - 1] if x in placed else x for x in range(1, m + 1))
        out.append((part, sub))
        pending = deferred
    return out


def _pieces(sigma: Perm, b: int) -> list[tuple[Partition, Perm]]:
    """The simple factors gen_general hides, each with its exact-b partition:
    decompose sigma along the sorting network, then regularize every layer."""
    m = len(sigma)
    d = decompose(sigma, b)
    return [piece for part, g in zip(d.partitions, d.gammas) for piece in _regularize(part, g, b, m)]


@lru_cache(maxsize=64)
def _layer_plan(m: int, b: int) -> tuple[Partition, ...]:
    """Exact-b partitions of the regularized decomposition, permutation-free."""
    return tuple(part for part, _ in _pieces(identity(m), b))


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
    lex = lex_partition(m, b)
    plan = _layer_plan(m, b)
    return len(plan) * _count_simple(m, b, k, p) + 4 * m * sum(part != lex for part in plan)


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
# samplers

def _retag_referee(g: LayeredGraph) -> LayeredGraph:
    # recursively sampled gadgets hide referee inputs; their player tags are
    # an artifact of reusing the same builder and must not leak upward
    retag = np.array([t != "fixed" for t in g.tag_names], dtype=np.uint16)
    return LayeredGraph.from_columns(g.layers, g.edges, retag[g.tag_ids], ("fixed", "referee"))


def sample_simple(
    rho: Perm, P: Partition, params: GenParams, rng: random.Random
) -> tuple[list[LayeredGraph], dict]:
    """gen_simple's parts plus the sampled communication core, for replay experiments."""
    m, b, k, p = params.m, params.b, params.k, params.p
    if len(rho) != m:
        raise ValueError(f"rho acts on [{len(rho)}], params say m={m}")
    canon = tuple(sorted((tuple(sorted(g)) for g in P), key=lambda g: g[0]))
    if not is_simple(rho, canon):
        raise ValueError("rho is not simple on the given partition")
    lex = lex_partition(m, b)
    if canon != lex:
        s = swap_perm(canon)
        inner, core = sample_simple(compose(s, compose(rho, inverse(s))), lex, params, rng)
        return [basic(inverse(s), "fixed"), *inner, basic(s, "fixed")], core

    grs = params.family
    vertex_count(params, general=False)
    target = vec(rho, b)
    sigmas, L, M = sample_core(grs.r, grs.t, b, k, rng)
    gamma = force_gamma(recompute_gamma_star(sigmas, L, M), target)
    core = {"sigmas": sigmas, "L": L, "M": M, "gamma": gamma}
    if p == 1:
        route = basic_route
    else:
        def route(s: Perm) -> list[LayeredGraph]:
            return [_retag_referee(gen_general(s, replace(params, m=len(s), p=p - 1), rng))]

    # rng draw order: blocks a = 1..k (left gadget before right), shift last
    return [*multi_block(grs, sigmas, L, M, b, route), *route(join(gamma))], core


def gen_simple(rho: Perm, P: Partition, params: GenParams, rng: random.Random) -> LayeredGraph:
    return concat_all(sample_simple(rho, P, params, rng)[0])


def gen_general(sigma: Perm, params: GenParams, rng: random.Random) -> LayeredGraph:
    """Hide an arbitrary permutation: decompose along the sorting network,
    regularize each layer to exact-b groups, hide every factor, concatenate."""
    if len(sigma) != params.m:
        raise ValueError(f"sigma acts on [{len(sigma)}], params say m={params.m}")
    vertex_count(params, general=True)
    return concat_all([g for part, gamma in _pieces(sigma, params.b)
                       for g in sample_simple(gamma, part, params, rng)[0]])


# ---------------------------------------------------------------------------
# replay support: the same player matrices with the lexicographically first
# referee inputs (all row indices 1, matching columns 1..r/2, identity shift)

def fake_simple_from_core(sigmas, params: GenParams) -> LayeredGraph:
    if params.p != 1:
        raise ValueError("fake replay is built for one-pass instances")
    b, k = params.b, params.k
    grs = params.family
    L = tuple(1 for _ in range(k))
    M = tuple(tuple(range(1, grs.r // 2 + 1)) for _ in range(k))
    return concat_all([*multi_block(grs, sigmas, L, M, b), *basic_route(identity(params.m))])
