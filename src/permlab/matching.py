"""Reduction from layered permutation graphs to bipartite matching instances.

Both sides copy the graph's vertex set; m/2 extra terminals per side attach to
the first half of the sources and sinks. A canonical matching pairs every
vertex with its own copy; augmenting paths of that matching correspond to
source-to-sink paths among the first m/2 positions. Hiding the identity gives
a perfect matching of n + m/2; hiding the cross permutation pins the maximum
at exactly n. The oracle is an iterative Hopcroft-Karp search from that
canonical matching, certified by a Koenig vertex cover.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .graphs import LayeredGraph
from .perms import Perm, identity


def sigma_eq(m: int) -> Perm:
    return identity(m)


def sigma_cross(m: int) -> Perm:
    """First half onto the second half and back: i <-> i + m/2."""
    if m % 2:
        raise ValueError("m must be even")
    half = m // 2
    return tuple(list(range(half + 1, m + 1)) + list(range(1, half + 1)))


def dichotomy_size(sigma: Perm, n: int) -> int | None:
    """The size max_matching must certify on bipartite_of(g, m) when the
    n-vertex graph g hides sigma on [m]: n + m/2 for sigma_eq(m), n for
    sigma_cross(m). None for any other sigma and for odd m, where the
    dichotomy says nothing."""
    m = len(sigma)
    if m % 2:
        return None
    if sigma == sigma_eq(m):
        return n + m // 2
    if sigma == sigma_cross(m):
        return n
    return None


@dataclass
class BipartiteInstance:
    n: int                      # graph vertices copied to each side
    half: int                   # extra terminals per side (m/2)
    indptr: np.ndarray          # int64 CSR offsets: left l's right neighbours (0-based,
    indices: np.ndarray         # int32, in edge order) are indices[indptr[l]:indptr[l + 1]]
    canonical: np.ndarray       # int32 vertices v whose copy edge (v, v) seeds the matching

    @classmethod
    def from_edges(cls, n: int, half: int, left, right, canonical) -> "BipartiteInstance":
        """Group the edges (left[e], right[e]) by left vertex, stably. Raise
        ValueError on the first edge with an end outside [0, n + half) and on
        any canonical vertex outside [0, n)."""
        side = n + half
        left, right, canonical = np.asarray(left), np.asarray(right), np.asarray(canonical)
        outside = (left < 0) | (left >= side) | (right < 0) | (right >= side)
        if outside.any():
            e = int(outside.argmax())
            raise ValueError(f"edge {e} ({left[e]}, {right[e]}) has an end outside [0, {side})")
        outside = (canonical < 0) | (canonical >= n)
        if outside.any():
            raise ValueError(f"canonical vertex {canonical[outside.argmax()]} is outside [0, {n})")
        left = left.astype(np.int32, copy=False)
        indptr = np.zeros(side + 1, dtype=np.int64)
        np.cumsum(np.bincount(left, minlength=side), out=indptr[1:])
        indices = right.astype(np.int32, copy=False)[np.argsort(left, kind="stable")]
        return cls(n, half, indptr, indices, canonical.astype(np.int32, copy=False))

    @property
    def side(self) -> int:
        return self.n + self.half

    @property
    def edge_count(self) -> int:
        return len(self.indices)


def bipartite_of(g: LayeredGraph, m: int) -> BipartiteInstance:
    if m % 2:
        raise ValueError("m must be even")
    half = m // 2
    if g.first_size() < half or g.last_size() < half:
        raise ValueError("boundary layers smaller than m/2")
    gu, gv = g.global_ids()
    n = g.vertex_count
    copies = np.arange(n, dtype=np.int32)
    terminals = np.arange(n, n + half, dtype=np.int32)
    sinks = np.arange(half, dtype=np.int32) + (n - g.last_size())
    # graph edges, canonical copy edges, terminal to source copy, sink copy to terminal.
    # From int32 edge columns, an edge that leaves the graph's vertices casts to
    # an id below 0 or past n + half at worst, which from_edges rejects.
    left = np.concatenate([gu - 1, copies, terminals, sinks], dtype=np.int32)
    right = np.concatenate([gv - 1, copies, copies[:half], terminals], dtype=np.int32)
    del gu, gv
    return BipartiteInstance.from_edges(n, half, left, right, copies)


@dataclass
class MatchingResult:
    size: int
    match_left: array           # array("i"): left index -> right index or -1
    cover_left: np.ndarray
    cover_right: np.ndarray
    certified: bool


def max_matching(inst: BipartiteInstance) -> MatchingResult:
    """Exact maximum matching by Hopcroft-Karp phases from the canonical seed,
    certified by a minimum vertex cover of equal size read off the last
    phase's search. Augmenting paths are walked with an explicit stack, so
    their length is bounded by memory, not by the recursion limit. The state
    lives in C int arrays, and each phase touches only the free left vertices
    and what its search reaches, never every vertex."""
    side = inst.side
    ptr, nbr = array("q", inst.indptr.tobytes()), array("i", inst.indices.tobytes())
    seed = np.full(side, -1, dtype=np.int32)
    seed[inst.canonical] = inst.canonical
    match_l, match_r = array("i", seed.tobytes()), array("i", seed.tobytes())
    free = np.flatnonzero(seed == -1).tolist()   # ascending, the order phases visit them in
    del seed
    INF = side + 1
    dist = array("i", [INF]) * side
    q = array("i")              # the last search's queue: every left vertex it set dist for

    def bfs() -> bool:
        nonlocal q
        for l in q:
            dist[l] = INF
        q = array("i", free)
        for l in free:
            dist[l] = 0
        found = False
        for l in q:             # also visits what the loop appends
            for r in nbr[ptr[l]:ptr[l + 1]]:
                nxt = match_r[r]
                if nxt == -1:
                    found = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[l] + 1
                    q.append(nxt)
        return found

    def augment(root: int) -> None:
        # explicit DFS stack: the path's left vertices, the offset in nbr of
        # the next untried edge of each, and the right vertex each path step
        # uses. Offsets are ints, so the stack holds no containers for the
        # garbage collector to walk however deep the path gets.
        path, untried, via = [root], [ptr[root]], []
        while path:
            l = path[-1]
            for e in range(untried[-1], ptr[l + 1]):
                r = nbr[e]
                nxt = match_r[r]
                if nxt == -1:
                    via.append(r)
                    for l, r in zip(path, via):
                        match_l[l] = r
                        match_r[r] = l
                    return
                if dist[nxt] == dist[l] + 1:
                    untried[-1] = e + 1
                    path.append(nxt)
                    untried.append(ptr[nxt])
                    via.append(r)
                    break
            else:
                dist[l] = INF   # dead end: drop l from this phase's layering
                path.pop()
                untried.pop()
                if via:
                    via.pop()

    while bfs():
        for l in free:
            augment(l)
        free = [l for l in free if match_l[l] == -1]
    del ptr, nbr, q

    size = side - len(free)

    # Koenig cover from the final search, which found no augmenting path:
    # left vertices it did not reach stay in the cover, right neighbours of
    # those it reached join it. Every edge must have an endpoint in it.
    reached = np.frombuffer(dist, dtype=np.int32) != INF
    from_reached = np.repeat(reached, np.diff(inst.indptr))   # per edge, in indices order
    in_cr = np.zeros(side, dtype=bool)
    in_cr[inst.indices[from_reached]] = True
    cover_left, cover_right = np.flatnonzero(~reached), np.flatnonzero(in_cr)
    covered = (~from_reached | in_cr[inst.indices]).all()
    certified = len(cover_left) + len(cover_right) == size and bool(covered)
    return MatchingResult(size, match_l, cover_left, cover_right, certified)


def instance_to_stream(inst: BipartiteInstance):
    """Undirected edge stream; right vertices numbered after the left side."""
    from .streams import EdgeStream

    side = inst.side
    lefts = np.repeat(np.arange(1, side + 1), np.diff(inst.indptr))
    return EdgeStream.from_columns(2 * side, False, lefts, side + inst.indices + 1)
