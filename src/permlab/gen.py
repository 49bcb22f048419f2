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
case replaces a routing gadget by its plain two-layer graph. Inner levels use
the aligned-chunk RS family at r' = 2*size/b.

The sampling order inside one call is fixed: player matrices, row indices,
hypermatching, then any recursive samples, with the shift computed (never
drawn). The number of random draws therefore never depends on the hidden
permutation, so matched seeds give identical player edges for different
hidden permutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

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
from .sortnet import SorterNetwork, build_sort_network, decompose

# an alias kept because perfbench/tracing.py looks this name up on this module
p_multi_block_sample = multi_block


@dataclass(frozen=True)
class GenParams:
    m: int
    b: int
    k: int = 2
    p: int = 1
    rs: RSGraph | None = None
    max_vertices: int = 20_000_000

    def resolved_rs(self) -> RSGraph:
        return self.rs if self.rs is not None else trivial_rs(2 * self.m // self.b, 2 * self.m // self.b)


def default_params(m: int, b: int, k: int = 2, p: int = 1) -> GenParams:
    params = GenParams(m, b, k, p)
    validate_params(params)
    return params


def validate_params(params: GenParams) -> None:
    m, b, k, p = params.m, params.b, params.k, params.p
    if b < 2:
        raise ValueError("b must be at least 2")
    if m % b:
        raise ValueError(f"hiding needs b | m, got m={m}, b={b}")
    if k < 1 or p < 1:
        raise ValueError("k and p must be at least 1")
    rs = params.resolved_rs()
    if rs.r != 2 * m // b:
        raise ValueError(f"rs.r={rs.r} must equal 2m/b={2 * m // b}")


@lru_cache(maxsize=64)
def _net(m: int, b: int) -> SorterNetwork:
    return build_sort_network(m, b)


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
        nbins = m // b
        bins: list[list[int]] = [[] for _ in range(nbins)]
        room = [b] * nbins
        deferred = []
        for g in pending:
            for i in range(nbins):
                if room[i] >= len(g):
                    bins[i].extend(g)
                    room[i] -= len(g)
                    break
            else:
                deferred.append(g)
        placed = {x for cell in bins for x in cell}
        idle = iter(x for x in range(1, m + 1) if x not in placed)
        for i in range(nbins):
            while room[i] > 0:
                bins[i].append(next(idle))
                room[i] -= 1
        part = tuple(sorted((tuple(sorted(cell)) for cell in bins), key=lambda g: g[0]))
        sub = tuple(gamma[x - 1] if x in placed else x for x in range(1, m + 1))
        out.append((part, sub))
        pending = deferred
    return out


@lru_cache(maxsize=64)
def _layer_plan(m: int, b: int) -> tuple[Partition, ...]:
    """Exact-b partitions of the regularized decomposition, permutation-free."""
    ident = identity(m)
    plan: list[Partition] = []
    for layer in reversed(_net(m, b).layers):
        for part, _ in _regularize(layer, ident, b, m):
            plan.append(part)
    return tuple(plan)


# ---------------------------------------------------------------------------
# vertex accounting. Counts depend only on parameters: a one-pass simple
# sample has 6k*n_rs*b + 2m vertices (plus 4m when wrapped); at p >= 2 each
# of the k blocks keeps its two encoded layers (2*n_rs*b) and gains two
# recursive samples at size n_rs*b, and the shift gadget becomes a recursive
# sample at size m.

def _count_simple(m: int, b: int, k: int, p: int, n_rs: int) -> int:
    if p == 1:
        return 6 * k * n_rs * b + 2 * m
    x = n_rs * b
    return 2 * k * (x + _count_general_inner(x, b, k, p - 1)) + _count_general_inner(m, b, k, p - 1)


@lru_cache(maxsize=256)
def _count_general_inner(m: int, b: int, k: int, p: int) -> int:
    return _count_general(m, b, k, p, 2 * m // b)


def _count_general(m: int, b: int, k: int, p: int, n_rs: int) -> int:
    lex = lex_partition(m, b)
    total = 0
    for part in _layer_plan(m, b):
        total += _count_simple(m, b, k, p, n_rs)
        if part != lex:
            total += 4 * m
    return total


def vertex_count(params: GenParams, general: bool) -> int:
    """Exact vertex count of any sample at these parameters.

    For general=False this is the count for a Lex-simple input; hiding over a
    non-Lex partition adds 4m wrapper vertices on top.
    """
    validate_params(params)
    n_rs = params.resolved_rs().n_rs
    if general:
        return _count_general(params.m, params.b, params.k, params.p, n_rs)
    return _count_simple(params.m, params.b, params.k, params.p, n_rs)


# ---------------------------------------------------------------------------
# samplers

def _inner_params(params: GenParams, size: int) -> GenParams:
    return GenParams(
        m=size,
        b=params.b,
        k=params.k,
        p=params.p - 1,
        rs=trivial_rs(2 * size // params.b, 2 * size // params.b),
        max_vertices=params.max_vertices,
    )


def _retag_referee(g: LayeredGraph) -> LayeredGraph:
    # recursively sampled gadgets hide referee inputs; their player tags are
    # an artifact of reusing the same builder and must not leak upward
    return LayeredGraph(
        list(g.layers),
        list(g.edges),
        ["fixed" if t == "fixed" else "referee" for t in g.tags],
    )


def sample_simple(
    rho: Perm, P: Partition, params: GenParams, rng: random.Random
) -> tuple[LayeredGraph, dict]:
    """gen_simple plus the sampled communication core, for replay experiments."""
    validate_params(params)
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
        wrapped = concat_all([basic(inverse(s), "fixed"), inner, basic(s, "fixed")])
        return wrapped, core

    budget = _count_simple(m, b, k, p, params.resolved_rs().n_rs)
    if budget > params.max_vertices:
        raise RuntimeError(f"sample would need {budget} vertices, cap is {params.max_vertices}")

    grs = params.resolved_rs()
    target = vec(rho, b)
    sigmas, L, M = sample_core(grs.r, grs.t, b, k, rng)
    gamma = force_gamma(recompute_gamma_star(sigmas, L, M), target)
    core = {"sigmas": sigmas, "L": L, "M": M, "gamma": gamma}
    if p == 1:
        route = basic_route
    else:
        def route(s: Perm) -> LayeredGraph:
            return _retag_referee(gen_general(s, _inner_params(params, len(s)), rng))

    # rng draw order: blocks a = 1..k (left gadget before right), shift last
    return concat_all([multi_block(grs, sigmas, L, M, b, route), route(join(gamma))]), core


def gen_simple(rho: Perm, P: Partition, params: GenParams, rng: random.Random) -> LayeredGraph:
    return sample_simple(rho, P, params, rng)[0]


def gen_general(sigma: Perm, params: GenParams, rng: random.Random) -> LayeredGraph:
    """Hide an arbitrary permutation: decompose along the sorting network,
    regularize each layer to exact-b groups, hide every factor, concatenate."""
    validate_params(params)
    m, b = params.m, params.b
    if len(sigma) != m:
        raise ValueError(f"sigma acts on [{len(sigma)}], params say m={m}")
    budget = vertex_count(params, general=True)
    if budget > params.max_vertices:
        raise RuntimeError(f"sample would need {budget} vertices, cap is {params.max_vertices}")
    d = decompose(sigma, b, _net(m, b))
    pieces: list[tuple[Partition, Perm]] = []
    for part, g in zip(d.partitions, d.gammas):
        pieces.extend(_regularize(part, g, b, m))
    graphs = [gen_simple(g, part, params, rng) for part, g in pieces]
    return concat_all(graphs)


# ---------------------------------------------------------------------------
# replay support: the same player matrices with the lexicographically first
# referee inputs (all row indices 1, matching columns 1..r/2, identity shift)

def fake_simple_from_core(sigmas, params: GenParams) -> LayeredGraph:
    if params.p != 1:
        raise ValueError("fake replay is built for one-pass instances")
    validate_params(params)
    b, k = params.b, params.k
    grs = params.resolved_rs()
    L = tuple(1 for _ in range(k))
    M = tuple(tuple(range(1, grs.r // 2 + 1)) for _ in range(k))
    return concat_all([multi_block(grs, sigmas, L, M, b), basic_route(identity(params.m))])
