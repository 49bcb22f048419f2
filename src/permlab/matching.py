"""Reduction from layered permutation graphs to bipartite matching instances.

Both sides copy the graph's vertex set; m/2 extra terminals per side attach to
the first half of the sources and sinks. A canonical matching pairs every
vertex with its own copy; augmenting paths of that matching correspond to
source-to-sink paths among the first m/2 positions. Hiding the identity gives
a perfect matching of n + m/2; hiding the cross permutation pins the maximum
at exactly n. When the graph is a union of vertex-disjoint paths, hiding any
sigma gives n plus the i <= m/2 with sigma(i) <= m/2.

The oracle grows that canonical matching to a maximum one and certifies it
with a Koenig vertex cover of equal size. When no vertex has two non-seed
edges, as in every reduction of a graph whose vertices have in- and
out-degree at most 1, the matching and the cover are read off the
alternating paths, labelled by pointer doubling, and checked against every
edge (_certificate). certified_size does the same from the graph's own path
labels without building the instance. Any other instance, or one whose
reading fails a check, gets an iterative Hopcroft-Karp search, the only step
that needs the instance's CSR columns; they are built on first use.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .graphs import BLOCK, LayeredGraph, in_blocks, path_roots, take_in_blocks
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
    for gu, gv in g.id_blocks():
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
    seeded = np.zeros(side, dtype=bool)
    seeded[:n] = True
    cert = _certificate(seeded, on, reached, chain(_graph_edges(g), _terminal_edges(g, n, half)))
    return None if cert is None else cert[0]


@dataclass
class MatchingResult:
    size: int
    match_left: array           # array("i"): left index -> right index or -1
    cover_left: np.ndarray      # int32 left and right vertices of the cover
    cover_right: np.ndarray
    certified: bool


def max_matching(inst: BipartiteInstance) -> MatchingResult:
    """Exact maximum matching from the canonical seed, certified by a minimum
    vertex cover of equal size. Read off the alternating paths when the
    instance's non-seed edges allow it (_path_matching), else found by
    Hopcroft-Karp phases (_hopcroft_karp); both give the same result."""
    res = _path_matching(inst)
    return res if res is not None else _hopcroft_karp(inst)


def _path_matching(inst: BipartiteInstance) -> MatchingResult | None:
    """The matching and Koenig cover read off the alternating paths, or None
    unless no vertex on either side has two non-seed edges (all edges but the
    canonical copy pairs), the paths have no cycle, and every check holds.

    Then each free left vertex starts one alternating path: its non-seed edge
    leads to a right vertex, that vertex's seed partner's non-seed edge leads
    on, and so on, until a right vertex outside the seed (the path augments)
    or a left vertex with no non-seed edge. A right vertex has one non-seed
    edge in, so these paths are vertex-disjoint and pointer doubling over the
    left vertex before each (graphs.path_roots) labels every left vertex with
    its path's root. Hopcroft-Karp augments all augmenting paths in its first
    phase, and its last search reaches exactly the rest of the free paths;
    the result below is that one, and it counts only once checked against
    the edge columns."""
    side = inst.side
    seeded = np.zeros(side, dtype=bool)
    for (cb,) in in_blocks(inst.canonical):
        seeded[cb] = True
    has_out = np.zeros(side, dtype=bool)             # left ends of non-seed edges
    up = np.full(side, -1, dtype=np.int32)           # each right vertex's non-seed left end
    exits = np.zeros(side, dtype=bool)               # left ends of non-seed edges to free rights
    count = 0                                        # non-seed edges
    for lb, rb in in_blocks(inst.left, inst.right):
        lb, rb = lb.astype(np.intp), rb.astype(np.intp)  # converted once, not per index use
        other = (lb != rb) | ~seeded[lb]             # the non-seed edges
        lb, rb = lb[other], rb[other]
        has_out[lb], up[rb] = True, lb
        exits[lb[~seeded[rb]]] = True
        count += len(lb)
    if np.count_nonzero(has_out) < count or np.count_nonzero(up >= 0) < count:
        return None                                  # a vertex with two non-seed edges
    del has_out
    # the left vertex before each on its path: seed partner r continues the
    # path of the left vertex whose non-seed edge reaches right r
    np.copyto(up, np.arange(side, dtype=np.int32), where=(up < 0) | ~seeded)
    root = path_roots(up)
    if not np.array_equal(take_in_blocks(up, root, np.empty_like(up)), root):
        return None                                  # a cycle of seeded vertices: labels that are no roots
    del up
    augments = np.zeros(side, dtype=bool)            # roots of augmenting paths
    augments[root[exits]] = True
    augments &= ~seeded                              # only paths from free left vertices
    quiet = ~(seeded | augments)                     # roots of free paths that do not augment
    on = take_in_blocks(augments, root, np.empty(side, dtype=bool))
    reached = take_in_blocks(quiet, root, np.empty(side, dtype=bool))
    del root, augments, quiet, exits
    cert = _certificate(seeded, on, reached, in_blocks(inst.left, inst.right))
    if cert is None:
        return None
    size, match, in_cl, in_cr = cert
    del cert, seeded, on, reached
    match_left = array("i")
    match_left.frombytes(memoryview(match).cast("B"))  # one copy, not two
    del match
    return MatchingResult(size, match_left, _int32_nonzero(in_cl), _int32_nonzero(in_cr), True)


def _certificate(seeded: np.ndarray, on: np.ndarray, reached: np.ndarray,
                 edges: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
    """The matching and Koenig cover that path labels give, checked against
    every edge of the instance: (size, match, in_cl, in_cr), the int32 right
    vertex of each left one (-1 for none) and the cover's left and right
    vertices as masks, or None when a check fails. edges yields the edges as
    (left, right) blocks; it may leave out the copy edges (v, v) of the
    seeded vertices, which every instance holds and the cover meets by
    construction: v's left copy is in it unless v is reached, and then v's
    right copy is.

    Left vertices on augmenting paths (on) take their non-seed edge, the
    other seeded ones keep their seed pair, whose copy edge every instance
    holds; so every pair is an edge. The cover is every left vertex off the
    free paths that do not augment (reached), and the right neighbours of
    those on them. Those are their copies: a reached vertex's non-seed edge
    leads to a seed pair on its own path, as one to a free right vertex would
    augment it. The checks: the cover meets every edge, no right vertex is
    used twice, and the cover is as large as the matching."""
    side = len(seeded)
    match = np.arange(side, dtype=np.int32)
    match[~seeded] = -1
    in_cl, in_cr = ~reached, reached & seeded
    for lb, rb in edges:
        lb, rb = lb.astype(np.intp), rb.astype(np.intp)  # converted once, not per index use
        if not (in_cl[lb] | in_cr[rb]).all():
            return None                              # an edge the cover misses
        at = np.flatnonzero(on[lb])
        lb, rb = lb[at], rb[at]
        other = (lb != rb) | ~seeded[lb]             # non-seed edges of vertices on augmenting paths
        match[lb[other]] = rb[other]
    size = 0
    used = np.zeros(side, dtype=bool)
    for (mb,) in in_blocks(match):
        mb = mb[mb >= 0]
        used[mb] = True
        size += len(mb)
    if np.count_nonzero(used) != size:
        return None                                  # a right vertex in two pairs
    if np.count_nonzero(in_cl) + np.count_nonzero(in_cr) != size:
        return None
    return size, match, in_cl, in_cr


def _hopcroft_karp(inst: BipartiteInstance) -> MatchingResult:
    """Hopcroft-Karp phases from the canonical seed, certified by a minimum
    vertex cover of equal size read off the last phase's search. Augmenting
    paths are walked with an explicit stack, so their length is bounded by
    memory, not by the recursion limit. The state lives in C int arrays, and
    each phase touches only the free left vertices and what its search
    reaches, never every vertex."""
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
