"""The RS-product gadgets: encoded graphs, edge picking, blocks, multi-blocks.

A block sandwiches an encoded RS graph between two routing gadgets chosen by
the picked edges, giving a permutation graph whose action on the first
(r/2)*b positions is determined by one row of the hidden permutation matrix.
A multi-block chains k of them. Each routing gadget is built by a
route(sigma) callable: the default basic_route is the plain two-layer graph
of sigma (a 6-layer block). Within a block the left gadget is routed before
the right, so a route that draws randomness sees a fixed order. Routes,
blocks and multi-blocks return parts, which concat_all joins; tests and
replay experiments build them here for any family, while gen writes the same
gadgets for its one-matching family straight into its sample's buffer.

Provenance: encoded layers carry the owning player's tag, routing gadgets
carry "referee", junctions stay "fixed".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

# concat_all is unused here, but perfbench/tracing.py looks the name up on this module
from .graphs import GroupLayeredGraph, LayeredGraph, basic, concat_all
from .perms import Perm, extend, match_aligned, random_perm
from .rs import RSGraph

PermMatrix = tuple[tuple[Perm, ...], ...]  # t rows, r columns, entries in S_b


@dataclass(frozen=True)
class EdgeTuple:
    ell: int                 # matching index in [t]
    edges: tuple[int, ...]   # r/2 distinct edge indices in [r]

    def validate(self, grs: RSGraph) -> None:
        if not 1 <= self.ell <= grs.t:
            raise ValueError(f"matching index {self.ell} outside [1,{grs.t}]")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("picked edge indices must be distinct")
        if any(not 1 <= e <= grs.r for e in self.edges):
            raise ValueError(f"edge index outside [1,{grs.r}]")


def check_perm_matrix(sig: PermMatrix, t: int, r: int, b: int) -> None:
    if len(sig) != t or any(len(row) != r for row in sig):
        raise ValueError(f"permutation matrix must be {t}x{r}")
    if any(len(p) != b for row in sig for p in row):
        raise ValueError(f"matrix entries must act on [{b}]")


def random_perm_matrix(t: int, r: int, b: int, rng: random.Random) -> PermMatrix:
    return tuple(tuple(random_perm(b, rng) for _ in range(r)) for _ in range(t))


def encoded_rs(grs: RSGraph, sig: PermMatrix, b: int) -> GroupLayeredGraph:
    """Two group layers over the RS vertex sets; RS edge j of matching i becomes
    the group edge (left, right) twisted by sigma_{i,j}."""
    check_perm_matrix(sig, grs.t, grs.r, b)
    tuples = []
    for i in range(1, grs.t + 1):
        for j in range(1, grs.r + 1):
            tuples.append((1, grs.left(i, j), grs.right(i, j), sig[i - 1][j - 1]))
    return GroupLayeredGraph(grs.n_rs, 2, b, tuples)


def edge_pick(grs: RSGraph, e: EdgeTuple) -> tuple[Perm, Perm]:
    """Routing permutations aligning picked edges with the leading groups:
    sigma_L(i) = left endpoint of the i-th picked edge, and sigma_R sends each
    picked right endpoint back to its index."""
    e.validate(grs)
    m_l = [(i, grs.left(e.ell, ej)) for i, ej in enumerate(e.edges, start=1)]
    m_r = [(grs.right(e.ell, ej), i) for i, ej in enumerate(e.edges, start=1)]
    return match_aligned(m_l, grs.n_rs), match_aligned(m_r, grs.n_rs)


def block_rho(grs: RSGraph, sig: PermMatrix, e: EdgeTuple, b: int) -> Perm:
    """Closed form of what a block realizes on m = (r/2)*b positions."""
    out = []
    for i, ej in enumerate(e.edges):
        p = sig[e.ell - 1][ej - 1]
        out.extend(i * b + p[a] for a in range(b))
    return tuple(out)


Route = Callable[[Perm], list[LayeredGraph]]  # parts of a routing gadget realizing sigma


def basic_route(sigma: Perm) -> list[LayeredGraph]:
    return [basic(sigma, "referee")]


def block(
    grs: RSGraph,
    sig: PermMatrix,
    e: EdgeTuple,
    b: int,
    player_tag: str = "player:1",
    route: Route = basic_route,
) -> list[LayeredGraph]:
    """Encoded RS layers between two routed gadgets, realizing block_rho on the
    first (r/2)*b positions (six layers of n_rs*b vertices with basic_route)."""
    sl, sr = edge_pick(grs, e)
    enc = encoded_rs(grs, sig, b).expand(tag=player_tag)
    left = route(extend(sl, b))
    right = route(extend(sr, b))
    return [*right, enc, *left]


Hypermatching = tuple[tuple[int, ...], ...]  # k rows of r/2 distinct indices


def check_hypermatching(M: Hypermatching, k: int, r: int) -> None:
    if len(M) != k:
        raise ValueError(f"hypermatching must have {k} rows")
    for a, row in enumerate(M, start=1):
        if len(row) != r // 2:
            raise ValueError(f"row {a} must pick r/2 = {r // 2} edges")
        if len(set(row)) != len(row) or any(not 1 <= x <= r for x in row):
            raise ValueError(f"row {a} is not a set of distinct indices in [{r}]")


def multi_block(
    grs: RSGraph,
    sigs: Sequence[PermMatrix],
    L: Sequence[int],
    M: Hypermatching,
    b: int,
    route: Route = basic_route,
) -> list[LayeredGraph]:
    """Chain of k blocks, the k-th traversed first; realizes the fold of the
    per-block permutations (= join of the hidden gamma-star vector). Blocks
    are built, and routed, in order a = 1..k."""
    k = len(sigs)
    check_hypermatching(M, k, grs.r)
    return [part for a in range(k)
            for part in block(grs, sigs[a], EdgeTuple(L[a], tuple(M[a])), b, f"player:{a + 1}", route)]
