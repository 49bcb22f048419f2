"""Reduction from layered permutation graphs to bipartite matching instances.

Both sides copy the graph's vertex set; m/2 extra terminals per side attach to
the first half of the sources and sinks. A canonical matching pairs every
vertex with its own copy; augmenting paths of that matching correspond to
source-to-sink paths among the first m/2 positions. Hiding the identity gives
a perfect matching of n + m/2; hiding the cross permutation pins the maximum
at exactly n. When the graph is a union of vertex-disjoint paths, hiding any
sigma gives n plus the i <= m/2 with sigma(i) <= m/2.

The oracle, max_matching, grows that canonical matching to a maximum one by
an iterative Hopcroft-Karp search over the instance's CSR columns, built on
first use, and certifies it with a Koenig vertex cover of equal size. When
the graph is a union of vertex-disjoint paths, certified_size reads the same
size off the graph's own path labels without building the instance, and
checks the matching and cover it reads against every edge (_certificate).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .graphs import BLOCK, LayeredGraph, in_blocks, take_in_blocks
from .perms import Perm, identity


def sigma_eq(m: int) -> Perm:
    return identity(m)


def sigma_cross(m: int) -> Perm:
    """First half onto the second half and back: i <-> i + m/2."""
    if m % 2:
        raise ValueError("m must be even")
    half = m // 2
    return tuple(list(range(half + 1, m + 1)) + list(range(1, half + 1)))


def matching_size(sigma: Perm, n: int) -> int | None:
    """The size max_matching certifies on bipartite_of(g, m) when the
    n-vertex graph g is a union of vertex-disjoint paths hiding sigma on [m]:
    n, plus one augmenting path for each source i <= m/2 with sigma(i) <= m/2.
    None at odd m, which has no reduction."""
    m = len(sigma)
    if m % 2:
        return None
    return n + sum(j <= m // 2 for j in sigma[:m // 2])


def dichotomy_size(sigma: Perm, n: int) -> int | None:
    """The size max_matching must certify on bipartite_of(g, m) when the
    n-vertex graph g hides sigma on [m], whatever its shape: n + m/2 for
    sigma_eq(m), n for sigma_cross(m). None for any other sigma and for odd
    m, where the dichotomy says nothing."""
    m = len(sigma)
    if m % 2 or sigma not in (sigma_eq(m), sigma_cross(m)):
        return None
    return matching_size(sigma, n)


@dataclass
class BipartiteInstance:
    n: int                      # graph vertices copied to each side
    half: int                   # extra terminals per side (m/2)
    left: np.ndarray            # int32 edge columns in edge order: edge e joins left
    right: np.ndarray           # vertex left[e] to right vertex right[e] (0-based)
    canonical: np.ndarray       # int32 vertices v whose copy edge (v, v) seeds the matching

    @classmethod
    def from_edges(cls, n: int, half: int, left, right, canonical) -> "BipartiteInstance":
        """Adopt the edges (left[e], right[e]) as int32 columns. Raise
        ValueError on the first edge with an end outside [0, n + half), on
        any canonical vertex outside [0, n) and on the first canonical vertex
        whose copy edge is not an edge."""
        side = n + half
        left, right, canonical = np.asarray(left), np.asarray(right), np.asarray(canonical)
        if len(left) and (min(left.min(), right.min()) < 0 or max(left.max(), right.max()) >= side):
            outside = (left < 0) | (left >= side) | (right < 0) | (right >= side)
            e = int(outside.argmax())
            raise ValueError(f"edge {e} ({left[e]}, {right[e]}) has an end outside [0, {side})")
        if len(canonical) and (canonical.min() < 0 or canonical.max() >= n):
            outside = (canonical < 0) | (canonical >= n)
            raise ValueError(f"canonical vertex {canonical[outside.argmax()]} is outside [0, {n})")
        left, right = left.astype(np.int32, copy=False), right.astype(np.int32, copy=False)
        canonical = canonical.astype(np.int32, copy=False)
        copied = np.zeros(side, dtype=bool)
        for lb, rb in in_blocks(left, right):
            copied[lb[lb == rb]] = True
        for (cb,) in in_blocks(canonical):
            missing = ~copied.take(cb)
            if missing.any():
                v = cb[missing.argmax()]
                raise ValueError(f"canonical vertex {v} has no copy edge ({v}, {v})")
        return cls(n, half, left, right, canonical)

    @cached_property
    def indptr(self) -> np.ndarray:
        """int64 CSR offsets: left l's right neighbours are
        indices[indptr[l]:indptr[l + 1]]. Built on first use."""
        indptr = np.zeros(self.side + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.left, minlength=self.side), out=indptr[1:])
        return indptr

    @cached_property
    def indices(self) -> np.ndarray:
        """int32 right ends grouped by left vertex, stably, so in edge order
        within a group. Built on first use."""
        return self.right[np.argsort(self.left, kind="stable")]

    @property
    def side(self) -> int:
        return self.n + self.half

    @property
    def edge_count(self) -> int:
        return len(self.left)


def bipartite_of(g: LayeredGraph, m: int) -> BipartiteInstance:
    """The reduction of g, hiding a permutation of [m]: graph edges, canonical
    copy edges (v, v), terminal to source copy, sink copy to terminal, in that
    order. Raise ValueError for odd m, boundary layers smaller than m/2 and
    sides too large for int32 ids."""
    n, half = _reduction_sides(g, m)
    copies = np.arange(n, dtype=np.int32)
    left, right = (np.empty(len(g.edges) + n + m, dtype=np.int32) for _ in range(2))
    at = 0
    for lb, rb in chain(_graph_edges(g), [(copies, copies)], _terminal_edges(g, n, half)):
        left[at:at + len(lb)], right[at:at + len(rb)] = lb, rb
        at += len(lb)
    return BipartiteInstance.from_edges(n, half, left, right, copies)


def _reduction_sides(g: LayeredGraph, m: int) -> tuple[int, int]:
    if m % 2:
        raise ValueError("m must be even")
    half = m // 2
    if g.first_size() < half or g.last_size() < half:
        raise ValueError("boundary layers smaller than m/2")
    n = g.vertex_count
    if n + half >= 2**31:
        raise ValueError(f"{n + half} vertices a side do not fit in int32 ids")
    return n, half


def _graph_edges(g: LayeredGraph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # From int32 edge columns, an edge that leaves the graph's vertices gets an
    # id below 0 (wrapped, in int32) or past n + half at worst, which from_edges rejects.
    for gu, gv, _ in g.id_blocks():
        gu -= 1
        gv -= 1
        yield gu, gv


def _terminal_edges(g: LayeredGraph, n: int, half: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    terminals = np.arange(n, n + half, dtype=np.int32)
    yield terminals, terminals - n
    yield terminals - g.last_size(), terminals


def certified_size(g: LayeredGraph, m: int, roots: np.ndarray) -> int | None:
    """max_matching(bipartite_of(g, m)).size, read off the path labels roots
    of g (graphs.path_labels) without building the instance, or None when
    the matching and cover read off them fail a check against the edges of
    bipartite_of(g, m) (_certificate). Raise ValueError as bipartite_of
    does.

    The instance's alternating path from terminal n + i - 1 runs through the copy
    pairs of source i's path, and augments when that path ends at a sink
    j <= m/2, whose copy's edge leads on to the free terminal n + j - 1."""
    n, half = _reduction_sides(g, m)
    side = n + half
    sinks = np.arange(n - g.last_size(), n - g.last_size() + half, dtype=np.int32)  # the first m/2, 0-based
    # state[r] for the path whose root has global id r: 1 when it augments,
    # 2 when it starts at a source r <= m/2 and does not, else 0; take_in_blocks
    # clips the other ids to 0 or m/2 + 1, which read 0
    state = np.full(half + 2, 2, dtype=np.int8)
    state[[0, -1]] = 0
    ends = roots[sinks + 1]
    state[ends[(ends >= 1) & (ends <= half)]] = 1
    labels = np.empty(side, dtype=np.int8)
    take_in_blocks(state, roots[1:], labels[:n])
    labels[n:] = state[1:half + 1]     # terminal n + i - 1 starts source i's path
    on, reached = labels == 1, labels == 2
    del labels
    return _certificate(n, on, reached, chain(_graph_edges(g), _terminal_edges(g, n, half)))


def _certificate(n: int, on: np.ndarray, reached: np.ndarray,
                 edges: Iterable[tuple[np.ndarray, np.ndarray]]) -> int | None:
    """The size of the matching and Koenig cover that certified_size's labels
    give, checked against every edge of the reduction, or None when a check
    fails. Left vertices on augmenting paths are marked on, those on free
    paths that do not augment reached; the first n vertices of each side are
    the graph's copies, seeded with the pairs (v, v). edges yields the other
    edges as (left, right) blocks: the cover meets the copy edges by
    construction, as v's left copy is in it unless v is reached, and then v's
    right copy is.

    Left vertices on augmenting paths take their edge along the path, the
    other copies keep their copy pair; so every pair is an edge. The cover
    is every left vertex off the reached paths, and the right copies of those
    on them: a reached vertex's edge leads to a copy on its own path, as one
    to a free right vertex would augment it. The checks: the cover meets
    every edge, no right vertex is used twice, and the cover is as large as
    the matching. Only the pairs of the left vertices on augmenting paths
    are held, as few as the vertices of m/2 paths in a union of paths."""
    side = len(on)
    lefts = np.flatnonzero(on)  # ascending
    match = lefts.astype(np.int32)  # lefts[i]'s pair so far
    match[lefts >= n] = -1
    for lb, rb in edges:
        lb, rb = lb.astype(np.intp), rb.astype(np.intp)  # converted once, not per index use
        if (reached[lb] & ~(reached[rb] & (rb < n))).any():
            return None                              # an edge the cover misses
        at = np.flatnonzero(on[lb])
        match[np.searchsorted(lefts, lb[at])] = rb[at]
    del lefts
    match = np.sort(match[match >= 0])  # np.unique would hold several times more
    # the copies off the augmenting paths use their own right copies
    if (match[1:] == match[:-1]).any() or not on[match[match < n]].all():
        return None                                  # a right vertex in two pairs
    size = n - np.count_nonzero(on[:n]) + len(match)
    if side - np.count_nonzero(reached) + np.count_nonzero(reached[:n]) != size:
        return None
    return size


@dataclass
class MatchingResult:
    size: int
    match_left: array           # array("i"): left index -> right index or -1
    cover_left: np.ndarray      # int32 left and right vertices of the cover
    cover_right: np.ndarray
    certified: bool


def max_matching(inst: BipartiteInstance) -> MatchingResult:
    """Exact maximum matching by Hopcroft-Karp phases from the canonical
    seed, certified by a minimum vertex cover of equal size read off the last
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
    cover_left, cover_right = _int32_nonzero(~reached), _int32_nonzero(in_cr)
    covered = (~from_reached | in_cr[inst.indices]).all()
    certified = len(cover_left) + len(cover_right) == size and bool(covered)
    return MatchingResult(size, match_l, cover_left, cover_right, certified)


def _int32_nonzero(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask) as int32, found a block at a time, so no int64
    array as long as the result is made."""
    out = np.empty(np.count_nonzero(mask), dtype=np.int32)
    at = 0
    for lo in range(0, len(mask), BLOCK):
        hits = np.flatnonzero(mask[lo:lo + BLOCK])
        hits += lo
        out[at:at + len(hits)] = hits
        at += len(hits)
    return out


def instance_to_stream(inst: BipartiteInstance):
    """Undirected edge stream; right vertices numbered after the left side."""
    from .streams import EdgeStream

    side = inst.side
    lefts = np.repeat(np.arange(1, side + 1), np.diff(inst.indptr))
    return EdgeStream.from_columns(2 * side, False, lefts, side + inst.indices + 1)
