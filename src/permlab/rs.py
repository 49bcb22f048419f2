"""Families of pairwise edge-disjoint induced matchings on [n] x [n].

An RSGraph is a bipartite graph on n left and n right vertices whose edge
set splits into t matchings of size r, each of which is induced: no edge of
the graph other than the matching's own edges may connect that matching's
left endpoints to its right endpoints. The relative matching size is
alpha = r / n.

validate_rs returns None for a valid family and a human-readable report for
the first violation found; downstream code treats violations as data, not
exceptions, so generators can be probed with broken inputs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class RSGraph:
    n_rs: int
    r: int
    t: int
    # matchings[i-1][j-1] = (left, right) of edge j in matching i, one-indexed
    matchings: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if self.n_rs < 1 or self.r < 1 or self.t < 1:
            raise ValueError("n_rs, r, t must be positive")
        if len(self.matchings) != self.t:
            raise ValueError(f"expected {self.t} matchings, got {len(self.matchings)}")
        for block in self.matchings:
            if len(block) != self.r:
                raise ValueError(f"expected matchings of size {self.r}")

    def left(self, i: int, j: int) -> int:
        return self.matchings[i - 1][j - 1][0]

    def right(self, i: int, j: int) -> int:
        return self.matchings[i - 1][j - 1][1]

    def all_edges(self) -> list[tuple[int, int, int]]:
        """(matching index, left, right) triples, one-indexed."""
        return [
            (i + 1, left, right)
            for i, block in enumerate(self.matchings)
            for left, right in block
        ]

    @property
    def alpha(self) -> float:
        return self.r / self.n_rs


def trivial_rs(n_rs: int, r: int) -> RSGraph:
    """Chunk-pair family: split [n_rs] into n_rs/r chunks of r; for each
    ordered chunk pair (p, q) one matching joins chunk p on the left to
    chunk q on the right, position by position. t = (n_rs/r)^2."""
    if n_rs % r != 0:
        raise ValueError(f"r={r} must divide n_rs={n_rs}")
    chunks = n_rs // r
    matchings = []
    for p in range(1, chunks + 1):
        for q in range(1, chunks + 1):
            matchings.append(
                tuple(((p - 1) * r + j, (q - 1) * r + j) for j in range(1, r + 1))
            )
    return RSGraph(n_rs, r, chunks * chunks, tuple(matchings))


def validate_rs(g: RSGraph) -> str | None:
    """None if g is a valid family; otherwise a report naming the first
    offending matching (and edge where applicable)."""
    seen: dict[tuple[int, int], int] = {}
    for i, block in enumerate(g.matchings, start=1):
        lefts = set()
        rights = set()
        for j, (left, right) in enumerate(block, start=1):
            if not (1 <= left <= g.n_rs and 1 <= right <= g.n_rs):
                return (f"matching {i} edge {j}: endpoint ({left},{right}) "
                        f"outside [1,{g.n_rs}]")
            if left in lefts:
                return f"matching {i} edge {j}: left vertex {left} repeated"
            if right in rights:
                return f"matching {i} edge {j}: right vertex {right} repeated"
            lefts.add(left)
            rights.add(right)
            if (left, right) in seen:
                return (f"matching {i} edge {j}: edge ({left},{right}) already "
                        f"in matching {seen[(left, right)]}")
            seen[(left, right)] = i
    # inducedness: an edge lying between another matching's lefts and rights
    # offends. Index the matchings at each endpoint, scan edges in (matching,
    # edge) order and report the first against the smallest such matching
    at_left: defaultdict[int, set[int]] = defaultdict(set)
    at_right: defaultdict[int, set[int]] = defaultdict(set)
    for i, left, right in g.all_edges():
        at_left[left].add(i)
        at_right[right].add(i)
    for i, block in enumerate(g.matchings, start=1):
        for j, (left, right) in enumerate(block, start=1):
            others = (at_left[left] & at_right[right]) - {i}
            if others:
                return (f"matching {i} edge {j}: edge ({left},{right}) "
                        f"joins the endpoints of matching {min(others)}, "
                        f"which is not induced")
    return None


def dump_rs(g: RSGraph) -> str:
    lines = [f"{g.n_rs} {g.r} {g.t}"]
    for block in g.matchings:
        for left, right in block:
            lines.append(f"{left} {right}")
    return "\n".join(lines) + "\n"


def parse_rs(text: str) -> RSGraph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 3:
        raise ValueError("first line must be 'n_rs r t'")
    n_rs, r, t = (int(x) for x in rows[0])
    body = rows[1:]
    if len(body) != t * r:
        raise ValueError(f"expected {t * r} edge lines, got {len(body)}")
    matchings = []
    for i in range(t):
        block = []
        for row in body[i * r:(i + 1) * r]:
            if len(row) != 2:
                raise ValueError(f"bad edge line {row!r}")
            block.append((int(row[0]), int(row[1])))
        matchings.append(tuple(block))
    g = RSGraph(n_rs, r, t, tuple(matchings))
    report = validate_rs(g)
    if report is not None:
        raise ValueError(f"parsed family is invalid: {report}")
    return g
