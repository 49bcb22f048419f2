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
hidden permutations. Nor does the sequence of gadgets the draws produce, so
the draw order also fixes the layout: where every gadget's edges go depends
on (m, b, k, p) alone, is planned once, and each sample writes its edges
once, into one buffer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice

import numpy as np

from .blocks import EdgeTuple, edge_pick, multi_block
from .graphs import LayeredGraph, basic, concat_all
from .hph import force_gamma, recompute_gamma_star, sample_core
from .perms import (
    Partition,
    Perm,
    compose,
    extend,
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

# multi_block, p_multi_block_sample and concat_all are not used here, but
# perfbench/tracing.py looks these names up on this module
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


@lru_cache(maxsize=64)
def _splits(m: int, b: int) -> tuple[tuple[tuple[Partition, frozenset[int]], ...], ...]:
    """_regularize of every layer of the decomposition, in its order."""
    return tuple(tuple(_regularize(P, b, m)) for P in decompose(identity(m), b).partitions)


def _pieces(sigma: Perm, b: int) -> list[tuple[Partition, Perm]]:
    """The simple factors gen_general hides, each with its exact-b partition:
    decompose sigma along the sorting network, then regularize every layer."""
    m = len(sigma)
    return [(part, tuple(g[x - 1] if x in placed else x for x in range(1, m + 1)))
            for split, g in zip(_splits(m, b), decompose(sigma, b).gammas)
            for part, placed in split]


@lru_cache(maxsize=64)
def _layer_plan(m: int, b: int) -> tuple[Partition, ...]:
    """Exact-b partitions of the regularized decomposition, permutation-free."""
    return tuple(part for split in _splits(m, b) for part, _ in split)


def _swap(part: Partition, m: int, b: int) -> tuple[Perm, Perm] | None:
    """None for Lex, else the relabeling s carrying part onto Lex, and s^-1."""
    if part == lex_partition(m, b):
        return None
    s = swap_perm(part)
    return s, inverse(s)


@lru_cache(maxsize=64)
def _swaps(m: int, b: int) -> tuple[tuple[Perm, Perm] | None, ...]:
    """_swap of every piece of _layer_plan."""
    return tuple(_swap(part, m, b) for part in _layer_plan(m, b))


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
# plan-then-fill. A sample is a chain of gadgets, each the two-layer graph of
# a permutation of its layer: a routing gadget at p = 1, a player's encoded RS
# layers (the family is one matching j -> j, so these are the gadget of the
# join of the matrix's row), or a fixed non-Lex wrapper. Consecutive gadgets
# are joined by identity junctions, as concat_all joins its parts, so the
# layout depends on (m, b, k, p) alone. The plan records it once; a sample
# allocates one buffer, draws, and writes each gadget's permutation into its
# slice as soon as it is known. Gadgets are written in draw order, which is
# not layer order: pieces are drawn first-to-last but traversed last-first,
# and so are the blocks of a simple sample, whose shift gadget is drawn last
# and traversed first.

FIXED, REFEREE = 0, 1  # tag ids; player a has id a + 1


def _tag_names(k: int) -> tuple[str, ...]:
    return ("fixed", "referee", *(f"player:{a}" for a in range(1, k + 1)))


def _kind(swap) -> str:
    """The shape of a simple sample whose piece has this entry of _swaps."""
    return "lex" if swap is None else "wrapped"


@dataclass(frozen=True)
class _Shape:
    """The gadgets of a sample: sizes and tag ids in layer order, and
    emit[i], the layer-order index of the i-th gadget the fill writes."""

    sizes: np.ndarray
    tags: np.ndarray
    emit: np.ndarray


def _gadget(size: int, tag: int) -> _Shape:
    return _Shape(np.array([size]), np.array([tag], dtype=np.uint16), np.zeros(1, dtype=np.int64))


def _chain(written: list[_Shape], layer_order) -> _Shape:
    """The shapes in written, filled in that order and laid out in
    layer_order (indices into written)."""
    first = dict(zip(layer_order, np.cumsum([0, *(len(written[c].sizes) for c in layer_order)]).tolist()))
    return _Shape(np.concatenate([written[c].sizes for c in layer_order]),
                  np.concatenate([written[c].tags for c in layer_order]),
                  np.concatenate([s.emit + first[c] for c, s in enumerate(written)]))


@lru_cache(maxsize=256)
def _shape(m: int, b: int, k: int, p: int, kind: str) -> _Shape:
    """kind "general" is a gen_general sample, "lex" a simple sample over
    Lex and "wrapped" one over another partition. The fill order is
    _fill_simple's and _fill_general's."""
    if kind == "general":
        pieces = [_shape(m, b, k, p, _kind(swap)) for swap in _swaps(m, b)]
        return _chain(pieces, range(len(pieces))[::-1])
    if kind == "wrapped":  # written s, s^-1, inner; traversed s, inner, s^-1
        wrapper = _gadget(m, FIXED)
        return _chain([wrapper, wrapper, _shape(m, b, k, p, "lex")], [0, 2, 1])
    # written left route, encoded layers, right route of blocks 1..k, then
    # the shift; traversed shift first, then blocks k..1
    wide, shift = _route(2 * m, b, k, p), _route(m, b, k, p)
    written = [part for a in range(k) for part in (wide, _gadget(2 * m, a + 2), wide)] + [shift]
    return _chain(written, [3 * k, *(3 * a + i for a in reversed(range(k)) for i in range(3))])


def _route(size: int, b: int, k: int, p: int) -> _Shape:
    """A routing gadget; at p >= 2 a (p-1)-pass sample, whose player tags
    become "referee": it hides referee inputs."""
    if p == 1:
        return _gadget(size, REFEREE)
    sub = _shape(size, b, k, p - 1, "general")
    return _Shape(sub.sizes, np.minimum(sub.tags, REFEREE), sub.emit)


@dataclass(frozen=True)
class _Plan:
    """A shape laid out as edge runs: gadget 0, junction 0, gadget 1, ...
    (gadget i is layer 2i+1's edges, junction i layer 2i+2's)."""

    layers: list[int]
    runs: np.ndarray       # edges per run
    starts: np.ndarray     # first edge of each run
    run_tags: np.ndarray   # tag id of each run
    slots: list[int]       # first edge of each gadget, in fill order
    tag_names: tuple[str, ...]


@lru_cache(maxsize=64)
def _plan(m: int, b: int, k: int, p: int, kind: str) -> _Plan:
    shape = _shape(m, b, k, p, kind)
    runs = np.empty(2 * len(shape.sizes) - 1, dtype=np.int64)
    runs[0::2] = shape.sizes
    runs[1::2] = np.minimum(shape.sizes[:-1], shape.sizes[1:])
    starts = np.cumsum(runs) - runs
    run_tags = np.zeros(len(runs), dtype=np.uint16)
    run_tags[0::2] = shape.tags
    return _Plan(np.repeat(shape.sizes, 2).tolist(), runs, starts, run_tags,
                 starts[0::2][shape.emit].tolist(), _tag_names(k))


def _filled(plan: _Plan, fill) -> LayeredGraph:
    """One edge buffer laid out by plan. fill(put) calls put(perm) once per
    gadget, in fill order; put writes perm as the gadget's v column."""
    edges = np.empty((int(plan.runs.sum()), 3), dtype=np.int32)
    layer, u, v = edges.T
    layer.fill(0)
    layer[plan.starts] = 1
    np.cumsum(layer, dtype=np.int32, out=layer)   # run r is layer r + 1
    u.fill(1)
    u[plan.starts[1:]] -= plan.runs[:-1]
    np.cumsum(u, dtype=np.int32, out=u)           # 1, 2, ... within each run
    v[:] = u   # junctions are identity matchings; each gadget overwrites its run
    slots = iter(plan.slots)

    def put(perm):
        at = next(slots)
        v[at:at + len(perm)] = perm

    fill(put)
    return LayeredGraph.from_columns(plan.layers, edges, np.repeat(plan.run_tags, plan.runs),
                                     plan.tag_names)


def _fill_general(sigma: Perm, params: GenParams, rng: random.Random, put) -> None:
    for (_, gamma), swap in zip(_pieces(sigma, params.b), _swaps(params.m, params.b)):
        _fill_simple(gamma, swap, params, rng, put)


def _fill_simple(rho: Perm, swap, params: GenParams, rng: random.Random, put) -> dict:
    """Draw a simple sample hiding rho, which is simple on Lex, or on the
    partition swap = (s, s^-1) carries onto Lex; put its gadgets; return
    the sampled communication core."""
    b, k, p = params.b, params.k, params.p
    if swap is not None:
        s, s_inv = swap
        put(s)
        put(s_inv)
        rho = compose(s, compose(rho, s_inv))
    grs = params.family
    sigmas, L, M = sample_core(grs.r, grs.t, b, k, rng)
    gamma = force_gamma(recompute_gamma_star(sigmas, L, M), vec(rho, b))
    if p == 1:
        route = put
    else:
        def route(s: Perm) -> None:
            _fill_general(s, replace(params, m=len(s), p=p - 1), rng, put)

    # rng draw order: blocks a = 1..k (left gadget before right), shift last
    for a in range(k):
        left, right = edge_pick(grs, EdgeTuple(L[a], M[a]))
        route(extend(left, b))
        put(join(sigmas[a][0]))
        route(extend(right, b))
    route(join(gamma))
    return {"sigmas": sigmas, "L": L, "M": M, "gamma": gamma}


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
    swap = _simple_swap(rho, P, params)
    shape = _shape(params.m, params.b, params.k, params.p, _kind(swap))
    names = _tag_names(params.k)
    parts: list[LayeredGraph] = [None] * len(shape.sizes)
    slots = iter(shape.emit.tolist())

    def put(perm):
        at = next(slots)
        parts[-1 - at] = basic(perm, names[shape.tags[at]])

    return parts, _fill_simple(rho, swap, params, rng, put)


def gen_simple(rho: Perm, P: Partition, params: GenParams, rng: random.Random) -> LayeredGraph:
    swap = _simple_swap(rho, P, params)
    plan = _plan(params.m, params.b, params.k, params.p, _kind(swap))
    return _filled(plan, lambda put: _fill_simple(rho, swap, params, rng, put))


def gen_general(sigma: Perm, params: GenParams, rng: random.Random) -> LayeredGraph:
    """Hide an arbitrary permutation: decompose along the sorting network,
    regularize each layer to exact-b groups, hide every factor, chained."""
    if len(sigma) != params.m:
        raise ValueError(f"sigma acts on [{len(sigma)}], params say m={params.m}")
    vertex_count(params, general=True)
    plan = _plan(params.m, params.b, params.k, params.p, "general")
    return _filled(plan, lambda put: _fill_general(sigma, params, rng, put))
