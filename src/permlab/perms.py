"""Permutations on [m] and the small zoo of maps the graph gadgets are built from.

A permutation is a tuple of images: p[i-1] is where i goes, values one-indexed.
Composition is (f o g)(x) = f(g(x)), i.e. g applies first. Every format and
docstring in this package speaks one-indexed; tuples index from zero internally.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

Perm = tuple[int, ...]
# A partition of [m] into groups; each group a sorted tuple of positions.
Partition = tuple[tuple[int, ...], ...]
# Vector of permutations on [b], one per group.
PermVector = tuple[Perm, ...]


def identity(m: int) -> Perm:
    return tuple(range(1, m + 1))


def compose(f: Perm, g: Perm) -> Perm:
    """Return f after g: x -> f(g(x))."""
    if len(f) != len(g):
        raise ValueError(f"domain mismatch: {len(f)} vs {len(g)}")
    return tuple(f[g[x] - 1] for x in range(len(f)))


def inverse(f: Perm) -> Perm:
    inv = [0] * len(f)
    for i, v in enumerate(f):
        inv[v - 1] = i + 1
    return tuple(inv)


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def random_perm(m: int, rng: random.Random) -> Perm:
    vals = list(range(1, m + 1))
    rng.shuffle(vals)
    return tuple(vals)


def parse_perm(text: str) -> Perm:
    p = tuple(int(tok) for tok in text.split())
    if not is_perm(p):
        raise ValueError(f"not a permutation: {text!r}")
    return p


# ---------------------------------------------------------------------------
# partitions and simple permutations

def lex_partition(m: int, b: int) -> Partition:
    """Split [m] into m/b consecutive groups of size b."""
    if m % b:
        raise ValueError(f"b={b} does not divide m={m}")
    return tuple(tuple(range(i * b + 1, (i + 1) * b + 1)) for i in range(m // b))


def is_simple(sigma: Perm, P: Partition) -> bool:
    """True iff sigma maps every group of P into itself."""
    group_of = {}
    for gi, grp in enumerate(P):
        for x in grp:
            group_of[x] = gi
    return all(group_of[sigma[x - 1]] == group_of[x] for x in range(1, len(sigma) + 1))


def random_simple(P: Partition, rng: random.Random) -> Perm:
    """Uniform permutation that is simple on P."""
    m = sum(len(g) for g in P)
    out = [0] * m
    for grp in P:
        imgs = list(grp)
        rng.shuffle(imgs)
        for x, y in zip(grp, imgs):
            out[x - 1] = y
    return tuple(out)


def vec(rho: Perm, b: int) -> PermVector:
    """Slice a Lex-simple permutation into its per-group permutations on [b].

    Entry i is gamma_i with gamma_i(j) = rho((i-1)b + j) - (i-1)b.
    """
    m = len(rho)
    if not is_simple(rho, lex_partition(m, b)):
        raise ValueError("vec needs a Lex-simple permutation")
    return tuple(
        tuple(rho[i * b + j] - i * b for j in range(b)) for i in range(m // b)
    )


def join(gamma: PermVector) -> Perm:
    """Inverse of vec: paste per-group permutations into one Lex-simple map."""
    if not gamma:
        return ()
    b = len(gamma[0])
    out = []
    for i, g in enumerate(gamma):
        if len(g) != b:
            raise ValueError("entries of a PermVector must share b")
        out.extend(i * b + v for v in g)
    return tuple(out)


def match_aligned(pairs: Iterable[tuple[int, int]], m: int) -> Perm:
    """Lexicographically first permutation with sigma(u) = v for each (u, v).

    Unassigned positions, in increasing order, take the smallest unused value.
    """
    out = [0] * m
    used = set()
    for u, v in pairs:
        if out[u - 1] or v in used:
            raise ValueError(f"pairs are not a partial injection at ({u},{v})")
        out[u - 1] = v
        used.add(v)
    free = (v for v in range(1, m + 1) if v not in used)
    for i in range(m):
        if not out[i]:
            out[i] = next(free)
    return tuple(out)


def extend(sigma: Perm, b: int) -> Perm:
    """Blow up sigma on [w] to [w*b]: (x-1)b + j -> (sigma(x)-1)b + j."""
    out = []
    for x in range(len(sigma)):
        base = (sigma[x] - 1) * b
        out.extend(base + j for j in range(1, b + 1))
    return tuple(out)


def swap_perm(P: Partition) -> Perm:
    """Relabeling that carries partition P onto Lex.

    swap(j) = (g-1)*b + rank of j inside its group, groups ordered by minimum
    element. Conjugating a P-simple permutation by it gives a Lex-simple one.
    Groups must share one size b.
    """
    groups = sorted((tuple(sorted(g)) for g in P), key=lambda g: g[0])
    sizes = {len(g) for g in groups}
    if len(sizes) != 1:
        raise ValueError("swap_perm needs uniform group size")
    b = sizes.pop()
    m = b * len(groups)
    out = [0] * m
    for gi, grp in enumerate(groups):
        for rank, j in enumerate(grp, start=1):
            out[j - 1] = gi * b + rank
    if 0 in out:
        raise ValueError("groups do not cover [m]")
    return tuple(out)


# ---------------------------------------------------------------------------
# Lehmer ranking (factorial number system), used for dense S_b indexing

def lehmer_rank(p: Perm) -> int:
    """Rank of p in lexicographic order of S_m, in [0, m!)."""
    m = len(p)
    rank = 0
    for i in range(m):
        smaller = sum(1 for j in range(i + 1, m) if p[j] < p[i])
        rank = rank * (m - i) + smaller
    return rank


def lehmer_unrank(rank: int, m: int) -> Perm:
    """The permutation of rank rank in lexicographic order of S_m; ValueError
    for a rank outside [0, m!)."""
    digits, rest = [], rank
    for radix in range(1, m + 1):
        digits.append(rest % radix)
        rest //= radix
    if rest:  # rank >= m!, or rank < 0, whose quotients stay at -1
        raise ValueError(f"rank {rank} outside [0, {m}!)")
    digits.reverse()
    avail = list(range(1, m + 1))
    return tuple(avail.pop(d) for d in digits)


def all_perms(m: int) -> list[Perm]:
    """All of S_m in Lehmer (lexicographic) order."""
    return [lehmer_unrank(i, m) for i in range(math.factorial(m))]
