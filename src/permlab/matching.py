"""Reduction from layered permutation graphs to bipartite matching instances.

Both sides copy the graph's vertex set; m/2 extra terminals per side attach to
the first half of the sources and sinks. A canonical matching pairs every
vertex with its own copy; augmenting paths of that matching correspond to
source-to-sink paths among the first m/2 positions. Hiding the identity gives
a perfect matching of n + m/2; hiding the cross permutation pins the maximum
at exactly n.

The oracle grows that canonical matching to a maximum one and certifies it
with a Koenig vertex cover of equal size. When no vertex has two non-seed
edges, as in every reduction of a graph whose vertices have in- and
out-degree at most 1, the matching and the cover are read off the
alternating paths, labelled by pointer doubling, and checked against every
edge. Any other instance, or one whose reading fails a check, gets an
iterative Hopcroft-Karp search, the only step that needs the instance's CSR
columns; they are built on first use.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

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
    if m % 2:
        raise ValueError("m must be even")
    half = m // 2
    if g.first_size() < half or g.last_size() < half:
        raise ValueError("boundary layers smaller than m/2")
    n = g.vertex_count
    if n + half >= 2**31:
        raise ValueError(f"{n + half} vertices a side do not fit in int32 ids")
    gu, gv = g.global_ids()
    gu -= 1
    gv -= 1
    copies = np.arange(n, dtype=np.int32)
    terminals = np.arange(n, n + half, dtype=np.int32)
    sinks = np.arange(half, dtype=np.int32) + (n - g.last_size())
    # graph edges, canonical copy edges, terminal to source copy, sink copy to terminal.
    # From int32 edge columns, an edge that leaves the graph's vertices gets an
    # id below 0 (wrapped, in int32) or past n + half at worst, which from_edges rejects.
    left = np.concatenate([gu, copies, terminals, sinks], dtype=np.int32)
    del gu
    right = np.concatenate([gv, copies, copies[:half], terminals], dtype=np.int32)
    del gv
    return BipartiteInstance.from_edges(n, half, left, right, copies)


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
    nxt = np.full(side, -1, dtype=np.int32)          # each left vertex's non-seed right end
    up = np.full(side, -1, dtype=np.int32)           # each right vertex's non-seed left end
    exits = np.zeros(side, dtype=bool)               # left ends of non-seed edges to free rights
    count = 0                                        # non-seed edges
    for lb, rb in in_blocks(inst.left, inst.right):
        lb, rb = lb.astype(np.intp), rb.astype(np.intp)  # converted once, not per index use
        other = (lb != rb) | ~seeded[lb]             # the non-seed edges
        lb, rb = lb[other], rb[other]
        nxt[lb], up[rb] = rb, lb
        exits[lb[~seeded[rb]]] = True
        count += len(lb)
    if np.count_nonzero(nxt >= 0) < count or np.count_nonzero(up >= 0) < count:
        return None                                  # a vertex with two non-seed edges
    # the left vertex before each on its path: seed partner r continues the
    # path of the left vertex whose non-seed edge reaches right r
    np.copyto(up, np.arange(side, dtype=np.int32), where=(up < 0) | ~seeded)
    root = path_roots(up)
    del up
    if root is None:
        return None                                  # a cycle of seeded vertices
    augments = np.zeros(side, dtype=bool)            # roots of augmenting paths
    augments[root[exits]] = True
    augments &= ~seeded                              # only paths from free left vertices
    quiet = ~(seeded | augments)                     # roots of free paths that do not augment
    on = take_in_blocks(augments, root, np.empty(side, dtype=bool))
    reached = take_in_blocks(quiet, root, np.empty(side, dtype=bool))
    del root, augments, quiet, exits
    match = np.arange(side, dtype=np.int32)
    match[~seeded] = -1
    np.copyto(match, nxt, where=on)
    del on
    # cover: left vertices off the reached paths, right neighbours of those on.
    # Those are their copies: a reached vertex's non-seed edge leads to a seed
    # pair on its own path, as one to a free right vertex would augment it.
    in_cl, in_cr = ~reached, reached & seeded
    del nxt, reached
    size = 0
    used, paired = np.zeros(side, dtype=bool), np.zeros(side, dtype=bool)
    for (mb,) in in_blocks(match):
        mb = mb[mb >= 0]
        used[mb] = True
        size += len(mb)
    for lb, rb in in_blocks(inst.left, inst.right):
        lb, rb = lb.astype(np.intp), rb.astype(np.intp)
        paired[lb[match[lb] == rb]] = True
        if not (in_cl[lb] | in_cr[rb]).all():
            return None                              # an edge the cover misses
    if np.count_nonzero(used) != size or not np.array_equal(paired, match >= 0):
        return None                                  # a pair twice or a pair no edge joins
    del used, paired
    match_left = array("i")
    match_left.frombytes(memoryview(match).cast("B"))  # one copy, not two
    del match
    cover_left, cover_right = _int32_nonzero(in_cl), _int32_nonzero(in_cr)
    if len(cover_left) + len(cover_right) != size:
        return None
    return MatchingResult(size, match_left, cover_left, cover_right, True)


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
