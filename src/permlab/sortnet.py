"""Sorting networks made of width-limited sorters, plus permutation decomposition.

A sorter is a set of wires; applying it sorts the values currently on those
wires ascending, written back in ascending wire order. A network is a sequence
of layers; each layer partitions the wires into disjoint groups of size at most
b (singleton groups are idle wires). Running a permutation through the network
and recording how positions move inside each layer decomposes the permutation
into one simple permutation per layer.

The merge construction views the input as q sorted runs, folds it into a
matrix column by column, recurses on columns, shears the columns into
diagonals, then repairs with one pass of square sorts and one pass of
boundary sorts. All sorters here have width at most q*q.

Measured depths (see tests): sort depth 9 for m=16, b=4; 25 for m=64, b=4.
Every tested (m, b) stays within 4 * ceil(log_b m)^2 layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .perms import Partition, Perm, compose, inverse

Group = tuple[int, ...]


@dataclass(frozen=True)
class SorterNetwork:
    m: int
    b: int
    layers: tuple[tuple[Group, ...], ...]  # each layer partitions [m]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def validate(self) -> None:
        for li, layer in enumerate(self.layers, start=1):
            seen = sorted(w for grp in layer for w in grp)
            if seen != list(range(1, self.m + 1)):
                raise ValueError(f"layer {li} is not a partition of [{self.m}]")
            if any(len(grp) > self.b for grp in layer):
                raise ValueError(f"layer {li} has a group wider than b={self.b}")

    def steps(self, values):
        """Yield the values on the wires (1-indexed) after each layer, as tuples."""
        vals = list(values)
        for layer in self.layers:
            for grp in layer:
                if len(grp) > 1:
                    ordered = sorted(vals[w - 1] for w in grp)
                    for w, v in zip(grp, ordered):
                        vals[w - 1] = v
            yield tuple(vals)

    def apply(self, values):
        """Run the network over a value list (one value per wire, 1-indexed)."""
        vals = tuple(values)
        for vals in self.steps(vals):
            pass
        return list(vals)


@dataclass(frozen=True)
class Decomposition:
    partitions: tuple[Partition, ...]
    gammas: tuple[Perm, ...]

    def recompose(self) -> Perm:
        out = self.gammas[-1]
        for g in reversed(self.gammas[:-1]):
            out = compose(g, out)
        return out


# ---------------------------------------------------------------------------
# construction

def _merge_ops(A: list[int], q: int) -> list[Group]:
    """Sorter sequence merging q sorted runs of len(A)/q laid out on wires A.

    Wires in A are ascending; every emitted sorter is a sorted wire tuple of
    width <= q*q.
    """
    n = len(A)
    if n <= q * q:
        return [tuple(A)] if n >= 2 else []
    rows = n // q
    ops: list[Group] = []
    # columns of the row-major (rows x q) view; each holds q sorted runs
    for j in range(q):
        ops.extend(_merge_ops(A[j::q], q))
    # shear columns into diagonals: cell (i, j) of the matrix moves to
    # sheared row i + j; then fix up with square sorts and boundary sorts
    crows = rows + q - 1
    nbands = (crows + q - 1) // q
    bands: list[list[int]] = []
    for band in range(nbands):
        cells = []
        for ci in range(band * q + 1, min((band + 1) * q, crows) + 1):
            for j in range(1, q + 1):
                i = ci - j + 1
                if 1 <= i <= rows:
                    cells.append((i - 1) * q + j)  # position in A, 1-indexed
        cells.sort()
        bands.append(cells)
    for cells in bands:
        if len(cells) >= 2:
            ops.append(tuple(A[c - 1] for c in cells))
    half = (q * q) // 2
    for ell in range(nbands - 1):
        lo = bands[ell][-half:]
        hi = bands[ell + 1][:half]
        cells = sorted(lo + hi)
        if len(cells) >= 2:
            ops.append(tuple(A[c - 1] for c in cells))
    return ops


def _sort_ops(A: list[int], b: int, q: int) -> list[Group]:
    n = len(A)
    if n <= b:
        return [tuple(A)] if n >= 2 else []
    part = n // q
    ops: list[Group] = []
    for i in range(q):
        ops.extend(_sort_ops(A[i * part : (i + 1) * part], b, q))
    ops.extend(_merge_ops(A, q))
    return ops


def _odd_even_ops(n: int) -> list[Group]:
    """Batcher odd-even mergesort comparators for n a power of two, 1-indexed."""
    ops: list[Group] = []

    def merge(lo: int, span: int, r: int) -> None:
        step = r * 2
        if step < span:
            merge(lo, span, step)
            merge(lo + r, span, step)
            for i in range(lo + r, lo + span - r, step):
                ops.append((i + 1, i + r + 1))
        else:
            ops.append((lo + 1, lo + r + 1))

    def sort(lo: int, span: int) -> None:
        if span > 1:
            half = span // 2
            sort(lo, half)
            sort(lo + half, half)
            merge(lo, span, 1)

    sort(0, n)
    return ops


def _next_power(base: int, m: int) -> int:
    p = base
    while p < m:
        p *= base
    return p


def _restrict(ops: list[Group], m: int) -> list[Group]:
    # padding wires sit above m and always hold the sentinel, so dropping them
    # from every sorter leaves an equivalent network on [m]
    out = []
    for grp in ops:
        kept = tuple(w for w in grp if w <= m)
        if len(kept) >= 2:
            out.append(kept)
    return out


def _schedule(ops: list[Group], m: int) -> tuple[tuple[Group, ...], ...]:
    """Pack an ordered sorter list into layers; overlapping sorters keep their
    relative order, disjoint ones share a layer."""
    last = [0] * (m + 1)
    layers: list[list[Group]] = []
    for grp in ops:
        li = max(last[w] for w in grp) + 1
        if li > len(layers):
            layers.append([])
        layers[li - 1].append(grp)
        for w in grp:
            last[w] = li
    full: list[tuple[Group, ...]] = []
    for layer in layers:
        covered = {w for grp in layer for w in grp}
        groups = list(layer) + [(w,) for w in range(1, m + 1) if w not in covered]
        groups.sort(key=lambda g: g[0])
        full.append(tuple(groups))
    return tuple(full)


@lru_cache(maxsize=64)
def build_sort_network(m: int, b: int) -> SorterNetwork:
    """Network of sorters of width <= b sorting every input on m wires.

    For b in {2, 3} this is Batcher's odd-even mergesort with 2-sorters. For
    b >= 4 it is the recursive q-way construction with q = isqrt(b); sorter
    width is q*q, the largest square not exceeding b. Non-power sizes are
    padded internally and the network restricted back to [m]. Networks are
    cached per (m, b) and shared: a SorterNetwork is immutable.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got m={m}")
    if b < 2:
        raise ValueError("b must be at least 2")
    if m <= b:
        layer = (tuple(range(1, m + 1)),)
        return SorterNetwork(m, b, (layer,) if m >= 2 else ())
    q = isqrt(b)
    if q < 2:
        M = _next_power(2, m)
        ops = _odd_even_ops(M)
    else:
        M = _next_power(q, m)
        ops = _sort_ops(list(range(1, M + 1)), q * q, q)
    return SorterNetwork(m, b, _schedule(_restrict(ops, m), m))


def depth_floor(m: int, b: int) -> int:
    """ceil(log_b m), the depth any network of sorters at most b wide needs to
    sort m wires: after d layers a wire's value can reach at most b^d wires."""
    e, p = 0, 1
    while p < m:
        p *= b
        e += 1
    return e


def depth_bound(m: int, b: int) -> int:
    """The advertised layer budget 4 * ceil(log_b m)^2."""
    return 4 * depth_floor(m, b) ** 2


# ---------------------------------------------------------------------------
# decomposition

def decompose(sigma: Perm, b: int) -> Decomposition:
    """Split sigma into one simple permutation per layer of
    build_sort_network(len(sigma), b).

    Feeding the value array sigma through the network and watching positions
    move yields movements g_1..g_d (g_j simple on layer j's partition) with
    g_d o ... o g_1 = sigma. Returned as gamma_i = g_{d-i+1}, so that
    compose(gamma_1, compose(gamma_2, ...)) = sigma and gamma_d acts first.
    """
    m = len(sigma)
    net = build_sort_network(m, b)
    w = tuple(sigma)
    moves: list[Perm] = []
    for new in net.steps(w):
        moves.append(compose(inverse(new), w))
        w = new
    if w != tuple(range(1, m + 1)):
        raise RuntimeError("network failed to sort the input permutation")
    return Decomposition(tuple(reversed(net.layers)), tuple(reversed(moves)))
