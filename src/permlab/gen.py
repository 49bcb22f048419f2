"""Seed-deterministic samplers that hide a permutation in a layered graph.

gen_simple hides a permutation that only shuffles within the groups of an
equipartition: it plants the per-group permutations as the hidden composition
of a sampled communication instance (multi-block plus a shift gadget), so the
graph realizes rho while each player's edges depend on that player's matrix
alone. Non-Lex partitions are handled by conjugating with a relabeling and
wrapping the graph in two fixed layers. gen_general first splits an arbitrary
permutation into simple factors along a sorting network, then hides each
factor in the same way, chained: one fill hides a stack of factors, each with
the relabeling that carries its partition onto Lex, and a simple permutation
is the one-factor stack. The network's pieces are one cached table of arrays.

At p >= 2 the two routing gadgets of every block, and the shift gadget, are
themselves samples of the (p-1)-pass generator at the smaller size; the base
case replaces a routing gadget by its plain two-layer graph. Every level, at
every size m, uses the aligned-chunk RS family with r = n_rs = 2m/b, which
has a single matching (t = 1).

The sampling order inside one call is fixed: player matrices, row indices,
hypermatching, then any recursive samples, with the shift computed (never
drawn). The number of random draws, and the bound of each, therefore never
depend on the hidden permutation, so matched seeds give identical player
edges for different hidden permutations. A sample's draws are decoded in
bulk, in that order and bit for bit as one random call per draw would give
them; its gadgets are then built as arrays, a recursion level at a time,
and written into one edge buffer. Where each gadget goes, and so the layer
sizes and each edge's layer and tag, depends on the parameters alone: the
same fill run without draws gives that layout, which verify checks against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .blocks import multi_block
from .codec import json_int
from .graphs import LayeredGraph, concat_all
from .hph import core_bounds, cores_from_draws, force_gamma, recompute_gamma_star, sample_core
from .perms import Partition, Perm, is_simple, lex_partition, swap_perm
from .rs import RSGraph, trivial_rs
from .seeds import randbelow_many
from .sortnet import build_sort_network, decompose, decompose_many, depth_floor

# decompose, multi_block, p_multi_block_sample, concat_all, sample_core,
# recompute_gamma_star and force_gamma are not used here, but
# perfbench/tracing.py looks these names up on this module
p_multi_block_sample = multi_block

MAX_VERTICES = 20_000_000
MAX_K = (1 << 16) - 2  # the k + 2 tag names of _tag_names need uint16 ids


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


def _relabelings(parts: list[Partition], m: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each exact-b partition, one row each of: the relabeling s
    carrying it onto Lex, s^-1, and whether it is wrapped (not Lex; Lex
    itself has the identity and no wrapper)."""
    lex = lex_partition(m, b)
    s = np.array([swap_perm(part) for part in parts], dtype=np.int32)
    return s, _inverse(s), np.array([part != lex for part in parts])


@lru_cache(maxsize=64)
def _layer_plan(m: int, b: int) -> tuple[np.ndarray, ...]:
    """The pieces gen_general hides, in order, read off the sorting network
    alone, one row per piece: its layer index in decompose's order (the
    network's layers reversed), the wires whose moves it takes (a mask),
    and _relabelings of its exact-b partition."""
    layers = reversed(build_sort_network(m, b).layers)
    plan = [(i, part, placed) for i, P in enumerate(layers) for part, placed in _regularize(P, b, m)]
    moving = np.array([[x in placed for x in range(1, m + 1)] for *_, placed in plan])
    return _read_only(np.array([i for i, *_ in plan]), moving,
                      *_relabelings([part for _, part, _ in plan], m, b))


def _factors(sigmas: np.ndarray, b: int) -> np.ndarray:
    """The simple factors gen_general hides for each row of sigmas, as an
    (n, pieces, m) array: decompose the rows along the sorting network, and
    split every layer's move as _layer_plan splits the layer."""
    m = sigmas.shape[1]
    layer, moving, *_ = _layer_plan(m, b)
    return np.where(moving, decompose_many(sigmas, b)[:, layer], np.arange(1, m + 1, dtype=np.int32))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: caches hand the same ones to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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


def _count_pieces(m: int, b: int, k: int, p: int, wrapped: np.ndarray) -> int:
    """Vertices of a sample hiding a stack of factors: a simple sample of
    each, wrapped where wrapped says."""
    return len(wrapped) * _count_simple(m, b, k, p) + 4 * m * int(wrapped.sum())


@lru_cache(maxsize=256)
def _count_general(m: int, b: int, k: int, p: int) -> int:
    return _count_pieces(m, b, k, p, _layer_plan(m, b)[4])


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


def _vertex_floor(params: GenParams, general: bool) -> int:
    """A lower bound on vertex_count that builds no sorting network."""
    floor = _count_floor(params.m, params.k, params.p)
    return floor * depth_floor(params.m, params.b) if general else floor


def vertex_count(params: GenParams, general: bool) -> int:
    """Exact vertex count of any sample at these parameters, or ValueError
    if it is over MAX_VERTICES.

    For general=False this is the count for a Lex-simple input; hiding over a
    non-Lex partition adds 4m wrapper vertices on top. Parameters whose count
    is over the cap by _count_floor alone (times depth_floor for general
    counts) are refused before the layer plans, which build sorting networks
    at sizes up to m * 2^(p-1).
    """
    floor = _vertex_floor(params, general)
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
# join of the matrix's row), or a fixed non-Lex wrapper. _fill decodes the
# sample's draws at once, then builds its gadgets a recursion level at a
# time, every core of a size together, each reading its draws and writing
# its gadgets at offsets that depend on the parameters alone. _filled then
# writes the chain into one edge buffer, joining consecutive gadgets by
# identity junctions, as concat_all joins its parts.

FIXED, REFEREE = 0, 1  # tag ids; player a has id a + 1


def _tag_names(k: int) -> tuple[str, ...]:
    return ("fixed", "referee", *(f"player:{a}" for a in range(1, k + 1)))


@dataclass(frozen=True, eq=False)
class Layout:
    """What a general sample's parameters fix, whatever it hides and draws:
    its layer sizes and its edges' layers and tags, as edge runs. Run r
    lies in layer r + 1 with tag id tags[r] into names: run 2i is gadget i,
    whose two layers have its size, and run 2i + 1 the fixed junction after
    it."""

    runs: np.ndarray
    tags: np.ndarray
    names: tuple[str, ...]

    @classmethod
    def of(cls, sizes: np.ndarray, tags: np.ndarray, k: int) -> "Layout":
        """The chain of gadgets with these sizes and tag ids, in layer order,
        each junction as wide as the smaller of the gadgets it joins."""
        runs = np.empty(2 * len(sizes) - 1, dtype=np.int64)
        runs[0::2] = sizes
        runs[1::2] = np.minimum(sizes[:-1], sizes[1:])
        run_tags = np.full(len(runs), FIXED, dtype=np.uint16)
        run_tags[0::2] = tags
        return cls(*_read_only(runs, run_tags), _tag_names(k))

    @property
    def edges(self) -> int:
        return int(self.runs.sum())

    def layers(self) -> list[int]:
        return np.repeat(self.runs[0::2], 2).tolist()

    def layer_column(self, out: np.ndarray) -> np.ndarray:
        """Each edge's layer, written into the int32 column out."""
        out.fill(0)
        out[np.cumsum(self.runs) - self.runs] = 1
        return np.cumsum(out, dtype=np.int32, out=out)

    def tag_ids(self) -> np.ndarray:
        return np.repeat(self.tags, self.runs)

    def problems(self, g: LayeredGraph) -> list[str]:
        """Where g's layer sizes, its edges' layers and its edges' tags first
        differ from the layout's, one problem each; edges are counted from 1
        in the graph's order. A graph holding this layout's own names tuple
        took its tags from the layout, as LayeredGraph.from_json adopts
        them, so its tags are not compared."""
        problems, layers = [], self.layers()
        if g.layers != layers:
            i = next((i for i, (x, y) in enumerate(zip(g.layers, layers)) if x != y), None)
            problems.append(f"{len(g.layers)} layers, the layout has {len(layers)}" if i is None
                            else f"layer {i + 1} has size {g.layers[i]}, the layout's has {layers[i]}")
        if len(g.edges) != self.edges:
            return problems + [f"{len(g.edges)} edges, the layout has {self.edges}"]

        def edge(e: int) -> str:
            return f"edge {e + 1} ({','.join(map(str, g.edges[e].tolist()))})"

        layer = self.layer_column(np.empty(self.edges, dtype=np.int32))
        if not np.array_equal(g.edges[:, 0], layer):
            e = int(np.argmax(g.edges[:, 0] != layer))
            problems.append(f"{edge(e)} is in layer {g.edges[e, 0]}, the layout puts it in layer {layer[e]}")
        del layer
        if g.tag_names is self.names:
            return problems
        index = {name: i for i, name in enumerate(self.names)}
        ids = np.array([index.get(t, len(index)) for t in g.tag_names], dtype=np.uint16)[g.tag_ids]
        want = self.tag_ids()
        if not np.array_equal(ids, want):
            e = int(np.argmax(ids != want))
            problems.append(f"{edge(e)} is tagged {g.tag_names[g.tag_ids[e]]}, "
                            f"the layout tags it {self.names[want[e]]}")
        return problems


def _filled(perms: np.ndarray, sizes: np.ndarray, tags: np.ndarray, k: int) -> LayeredGraph:
    """The chain of gadgets as one graph: gadget i has sizes[i] entries of
    perms, in order, and tag id tags[i], laid out as Layout.of lays them."""
    layout = Layout.of(sizes, tags, k)
    runs = layout.runs
    edges = np.empty((layout.edges, 3), dtype=np.int32)
    layer, u, v = edges.T
    layout.layer_column(layer)
    u.fill(1)
    u[np.cumsum(runs[:-1])] -= runs[:-1]
    np.cumsum(u, dtype=np.int32, out=u)           # 1, 2, ... within each run
    v[:] = u                                      # junctions are identity matchings
    v[np.repeat(np.arange(len(runs)) % 2 == 0, runs)] = perms
    return LayeredGraph.from_columns(layout.layers(), edges, layout.tag_ids(), layout.names)


@lru_cache(maxsize=64)
def _bounds(m: int, b: int, k: int, p: int) -> np.ndarray:
    """The bounds of a simple sample's draws, in draw order: its core
    (player matrices, row indices, hypermatching), then at p >= 2 its
    routes' (p-1)-pass general samples, blocks a = 1..k with the left route
    before the right, the shift gadget last. A general sample draws the
    simple samples of its pieces in turn."""
    parts = [core_bounds(2 * m // b, 1, b, k)]
    if p > 1:
        routes = [np.tile(_bounds(size, b, k, p - 1), len(_layer_plan(size, b)[0])) for size in (2 * m, m)]
        parts += routes[:1] * (2 * k) + routes[1:]
    return _read_only(np.concatenate(parts))[0]


def _inverse(perms: np.ndarray) -> np.ndarray:
    """The inverses of one-indexed permutations along the last axis."""
    out = np.empty_like(perms)
    np.put_along_axis(out, perms - 1, np.arange(1, perms.shape[-1] + 1, dtype=perms.dtype), axis=-1)
    return out


def _extend(perms: np.ndarray, b: int) -> np.ndarray:
    """perms.extend(b) along the last axis: (x-1)b + j -> (perm(x)-1)b + j."""
    return (((perms - 1) * b)[..., None] + np.arange(1, b + 1)).reshape(*perms.shape[:-1], -1)


class _Sample:
    """One sample's fill: its draws, and its gadgets as they are placed.
    Without draws it places each gadget by its size and tag alone, which
    the parameters fix: the sample's layout."""

    def __init__(self, params: GenParams, draws: np.ndarray | None, total: int):
        self.b, self.k = params.b, params.k
        self.draws = draws
        self.perms = None if draws is None else np.empty(total, dtype=np.int32)   # the gadgets' entries
        self.placed: list[tuple[np.ndarray, int, object]] = []   # offsets, size, tag id or ids

    def place(self, at: np.ndarray, size: int, perms: np.ndarray | None, tag) -> None:
        at = at.ravel()
        if self.perms is not None:
            self.perms[at[:, None] + np.arange(size)] = perms.reshape(len(at), size)
        self.placed.append((at, size, tag))

    def pieces(self, m: int, p: int, factors: np.ndarray | None, swaps: tuple, drawn: np.ndarray,
               at: np.ndarray):
        """Samples hiding the product of each stack of factors, their draws
        starting at drawn and their gadgets at at: a simple sample of each
        factor, carried onto Lex by its row of swaps = (s, s^-1, wrapped),
        in draw order, the last factor traversed first."""
        s, s_inv, wrapped = swaps
        n, count = len(at), len(wrapped)
        piece = np.arange(count)[:, None]
        # s o factor o s^-1, a row for each factor of each stack
        rho = None if factors is None else s[piece, factors[:, piece, s_inv - 1] - 1].reshape(n * count, m)
        spans = _count_simple(m, self.b, self.k, p) // 2 + 2 * m * wrapped
        after = spans.sum() - np.cumsum(spans)
        drawn = drawn[:, None] + np.arange(count) * len(_bounds(m, self.b, self.k, p))
        return rho, drawn.ravel(), (at[:, None] + after).ravel(), np.tile(np.arange(count), n), swaps

    def cores(self, m: int, p: int, rho: np.ndarray | None, drawn: np.ndarray, at: np.ndarray,
              piece: np.ndarray, swaps, top: bool, routes: dict) -> tuple | None:
        """Simple samples hiding each row of rho (Lex-simple; wrapped in its
        piece's relabeling where swaps says): place their gadgets, add their
        routes' samples to routes at p >= 2, and return the cores' arrays
        (None without draws)."""
        b, k = self.b, self.k
        width = 2 * m
        n = len(at)
        core, gadgets = (None, (None,) * 4) if rho is None else self._cores(m, rho, drawn)
        shift, left, right, encoded = gadgets

        # layer order: [s], the shift, blocks k..1 (left route, encoded
        # layer, right route), [s^-1]
        s, s_inv, wrapped = swaps
        wrap = wrapped[piece]
        head = at + m * wrap
        shift_span = m if p == 1 else _count_general(m, b, k, p - 1) // 2
        route_span = width if p == 1 else _count_general(width, b, k, p - 1) // 2
        block = head[:, None] + shift_span + (k - 1 - np.arange(k)) * (2 * route_span + width)
        self.place(block + route_span, width, encoded, np.tile(np.arange(2, k + 2), n) if top else REFEREE)
        self.place(at[wrap], m, s[piece[wrap]], FIXED)
        self.place(head[wrap] + shift_span + k * (2 * route_span + width), m, s_inv[piece[wrap]], FIXED)
        right_at = block + route_span + width
        if p == 1:
            for gadget_at, size, perms in ((head, m, shift), (block, width, left), (right_at, width, right)):
                self.place(gadget_at, size, perms, REFEREE)
        else:
            after = drawn + len(core_bounds(2 * m // b, 1, b, k))
            each = len(_bounds(width, b, k, p - 1)) * len(_layer_plan(width, b)[0])
            left_drawn = after[:, None] + 2 * np.arange(k) * each
            routes.setdefault(width, []).extend([
                (left, left_drawn.ravel(), block.ravel()),
                (right, (left_drawn + each).ravel(), right_at.ravel()),
            ])
            routes.setdefault(m, []).append((shift, after + 2 * k * each, head))
        return core

    def _cores(self, m: int, rho: np.ndarray, drawn: np.ndarray) -> tuple[tuple, tuple]:
        """The cores hiding each row of rho, from their draws at drawn:
        (matrices, row indices, hypermatchings, shifts), then their gadgets'
        entries (shift, left routes, right routes, encoded layers), the
        routes and layers one row per block."""
        b, k = self.b, self.k
        r, half, width = 2 * m // b, m // b, 2 * m
        n = len(rho)
        bounds = len(core_bounds(r, 1, b, k))
        sig, L, M = cores_from_draws(self.draws[drawn[:, None] + np.arange(bounds)], r, 1, b, k)
        row = sig[:, :, 0]   # t = 1: every row index is 1
        # gamma = force_gamma(recompute_gamma_star(...), vec(rho)): the picked
        # entries composed over the players, inverted, then rho's blocks
        picked = np.take_along_axis(row, (M - 1)[..., None], axis=2)
        gstar = picked[:, 0]
        for a in range(1, k):
            gstar = np.take_along_axis(gstar, picked[:, a] - 1, axis=2)
        base = np.arange(0, m, b)[:, None]
        gamma = np.take_along_axis(_inverse(gstar), rho.reshape(n, half, b) - base - 1, axis=2)
        shift = (gamma + base).reshape(n, m)
        # edge_pick: sigma_L sends i to the i-th picked index, then the
        # unpicked ones in order; sigma_R is its inverse
        free = np.ones((n, k, r), dtype=bool)
        np.put_along_axis(free, M - 1, False, axis=2)
        left = np.concatenate((M, np.nonzero(free)[2].reshape(n, k, half) + 1), axis=2)
        left, right = _extend(left, b), _extend(_inverse(left), b)
        encoded = (row + (np.arange(r) * b)[:, None]).reshape(n, k, width)
        return (sig, L, M, gamma), (shift, left.reshape(n * k, width), right.reshape(n * k, width), encoded)

    def gadgets(self) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """The placed gadgets in layer order: their permutations in one
        buffer (None without draws), their sizes and their tag ids."""
        order = np.argsort(np.concatenate([at for at, _, _ in self.placed]))
        sizes = np.concatenate([np.full(len(at), size) for at, size, _ in self.placed])
        tags = np.concatenate([np.broadcast_to(np.uint16(tag), at.shape) for at, _, tag in self.placed])
        return self.perms, sizes[order], tags[order]


def _fill(factors: np.ndarray | None, swaps: tuple, params: GenParams, rng: random.Random | None):
    """Draw a sample hiding the product of a stack of factors, the last
    applied first, factor i simple on the partition that row i of
    swaps = (s, s^-1, wrapped) carries onto Lex. Returns its gadgets
    (perms, sizes, tag ids) in layer order and the cores of its factors'
    simple samples: matrices, row indices, hypermatchings and shifts.
    Without factors and rng it draws nothing: perms and cores are None."""
    m, b, k, p = params.m, params.b, params.k, params.p
    draws = None if rng is None else randbelow_many(np.tile(_bounds(m, b, k, p), len(swaps[2])), rng)
    fill = _Sample(params, draws, _count_pieces(m, b, k, p, swaps[2]) // 2)
    zero = np.zeros(1, dtype=np.int64)
    stack = None if factors is None else factors[None]
    samples = {m: (stack, swaps, zero, zero)}   # factors, relabelings, draw and buffer offsets
    core = None
    for level in range(p):
        routes: dict = {}
        for size, stack in samples.items():
            made = fill.cores(size, p - level, *fill.pieces(size, p - level, *stack),
                              top=level == 0, routes=routes)
            core = made if core is None else core
        samples = {}
        for size, parts in routes.items():   # the routes are general samples
            sigmas, drawn, at = zip(*parts)
            samples[size] = (None if factors is None else _factors(np.concatenate(sigmas), b),
                             _layer_plan(size, b)[2:], np.concatenate(drawn), np.concatenate(at))
    return fill.gadgets(), core


@lru_cache(maxsize=8)
def layout(params: GenParams) -> Layout:
    """The layout every gen_general sample at these parameters has, read off
    a fill that draws nothing. Raises ValueError over the vertex cap."""
    vertex_count(params, general=True)
    (_, sizes, tags), _ = _fill(None, _layer_plan(params.m, params.b)[2:], params, None)
    return Layout.of(sizes, tags, params.k)


def header_layout(doc: dict, edges: int) -> Layout | None:
    """The layout that a permgraph document's header fixes for its graph of
    that many edges, or None unless m, b, k and p are JSON integers that gen
    accepts, sigma is a list of m entries and there are at least half as
    many edges as _vertex_floor has vertices, as in every sample (a gadget
    of size s has 2s vertices and s edges). These checks build no sorting
    network, so a document too small for its params costs none."""
    if doc.get("kind") != "permgraph":
        return None
    try:
        params = default_params(*(json_int(doc[key], key) for key in ("m", "b", "k", "p")))
        sized = isinstance(doc["sigma"], list) and len(doc["sigma"]) == params.m
        return layout(params) if sized and 2 * edges >= _vertex_floor(params, general=True) else None
    except (KeyError, ValueError):
        return None


def sample_simple(
    rho: Perm, P: Partition, params: GenParams, rng: random.Random
) -> tuple[LayeredGraph, dict]:
    """gen_simple's graph plus its sampled communication core, for replay
    experiments."""
    if len(rho) != params.m:
        raise ValueError(f"rho acts on [{len(rho)}], params say m={params.m}")
    canon = tuple(sorted((tuple(sorted(g)) for g in P), key=lambda g: g[0]))
    if not is_simple(rho, canon):
        raise ValueError("rho is not simple on the given partition")
    vertex_count(params, general=False)
    swaps = _relabelings([canon], params.m, params.b)
    gadgets, (sig, L, M, gamma) = _fill(np.array([rho], dtype=np.int32), swaps, params, rng)
    core = {"sigmas": tuple(tuple(tuple(map(tuple, row)) for row in mat) for mat in sig[0].tolist()),
            "L": tuple(L[0].tolist()), "M": tuple(map(tuple, M[0].tolist())),
            "gamma": tuple(map(tuple, gamma[0].tolist()))}
    return _filled(*gadgets, params.k), core


def gen_simple(rho: Perm, P: Partition, params: GenParams, rng: random.Random) -> LayeredGraph:
    """Hide rho, simple on P: the one-factor sample, wrapped unless P is Lex."""
    return sample_simple(rho, P, params, rng)[0]


def gen_general(sigma: Perm, params: GenParams, rng: random.Random) -> LayeredGraph:
    """Hide an arbitrary permutation: decompose along the sorting network,
    regularize each layer to exact-b groups, hide every factor, chained."""
    if len(sigma) != params.m:
        raise ValueError(f"sigma acts on [{len(sigma)}], params say m={params.m}")
    vertex_count(params, general=True)
    factors = _factors(np.array([sigma], dtype=np.int32), params.b)[0]
    gadgets, _ = _fill(factors, _layer_plan(params.m, params.b)[2:], params, rng)
    return _filled(*gadgets, params.k)
