"""Layered DAGs, the permutation-graph gadgets, concatenation, and extraction.

Vertices live in layers; an edge only ever joins layer i to layer i+1. Within a
layer, vertices are indexed 1..size. A graph "realizes" sigma when source i
(position i of the first layer, i <= m) reaches sink j (position j of the last
layer, j <= m) exactly when sigma(i) = j.

Every edge carries a provenance tag naming which input produced it; junction
matchings added by concatenation are tagged "fixed".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .perms import Perm

Edge = tuple[int, int, int]  # (layer index i, source pos in layer i, target pos in layer i+1)


@dataclass
class LayeredGraph:
    layers: list[int]
    edges: list[Edge]
    tags: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.tags:
            self.tags = ["fixed"] * len(self.edges)
        if len(self.tags) != len(self.edges):
            raise ValueError("one tag per edge required")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def vertex_count(self) -> int:
        return sum(self.layers)

    def first_size(self) -> int:
        return self.layers[0]

    def last_size(self) -> int:
        return self.layers[-1]

    def validate(self) -> None:
        for li, u, v in self.edges:
            if not 1 <= li <= self.depth - 1:
                raise ValueError(f"edge layer {li} out of range")
            if not (1 <= u <= self.layers[li - 1] and 1 <= v <= self.layers[li]):
                raise ValueError(f"edge ({li},{u},{v}) leaves its layers")

    def to_dict(self) -> dict:
        """The JSON payload: layers, edges as lists, and tags unless all are
        "fixed"."""
        payload: dict = {"layers": self.layers, "edges": [list(e) for e in self.edges]}
        if any(t != "fixed" for t in self.tags):
            payload["tags"] = self.tags
        return payload

    @classmethod
    def from_dict(cls, d: dict) -> "LayeredGraph":
        edges = [tuple(e) for e in d["edges"]]
        return cls(list(d["layers"]), edges, list(d.get("tags", [])))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "LayeredGraph":
        return cls.from_dict(json.loads(text))


def basic(sigma: Perm, tag: str = "fixed") -> LayeredGraph:
    """Two layers of size m joined by the matching i -> sigma(i)."""
    m = len(sigma)
    edges = [(1, i, sigma[i - 1]) for i in range(1, m + 1)]
    return LayeredGraph([m, m], edges, [tag] * m)


def concat_all(graphs: Sequence[LayeredGraph]) -> LayeredGraph:
    """Chain graphs, graphs[-1] traversed first: paths traverse each graph in
    turn, crossing an identity matching from the last layer of one to the
    first layer of the next (truncated to the smaller of the two)."""
    if not graphs:
        raise ValueError("nothing to concatenate")
    ordered = list(reversed(graphs))  # traversal order
    layers: list[int] = []
    edges: list[Edge] = []
    tags: list[str] = []
    for g in ordered:
        if layers:
            junction = min(layers[-1], g.layers[0])
            li = len(layers)
            edges.extend((li, i, i) for i in range(1, junction + 1))
            tags.extend("fixed" for _ in range(junction))
        off = len(layers)
        layers.extend(g.layers)
        edges.extend((li + off, u, v) for (li, u, v) in g.edges)
        tags.extend(g.tags)
    return LayeredGraph(layers, edges, tags)


class ExtractionError(Exception):
    """Reachability does not describe a permutation; names the offending source."""

    def __init__(self, source: int, sinks: list[int]):
        self.source = source
        self.sinks = sinks
        super().__init__(
            f"source {source} reaches sinks {sinks} in the first m positions "
            f"(need exactly one)"
        )


def _adjacency(g: LayeredGraph) -> list[list[list[int]]]:
    adj: list[list[list[int]]] = [
        [[] for _ in range(g.layers[i])] for i in range(g.depth - 1)
    ]
    for li, u, v in g.edges:
        adj[li - 1][u - 1].append(v)
    return adj


def extract_permutation(g: LayeredGraph, m: int) -> Perm:
    """Recover sigma from reachability, or raise ExtractionError.

    Source i must reach exactly one of the first m sinks, and the map must be
    a bijection on [m].
    """
    if g.first_size() < m or g.last_size() < m:
        raise ValueError(f"boundary layers smaller than m={m}")
    adj = _adjacency(g)
    out = []
    for i in range(1, m + 1):
        frontier = {i}
        for layer_adj in adj:
            frontier = {v for u in frontier for v in layer_adj[u - 1]}
            if not frontier:
                break
        hits = sorted(v for v in frontier if v <= m)
        if len(hits) != 1:
            raise ExtractionError(i, hits)
        out.append(hits[0])
    if sorted(out) != list(range(1, m + 1)):
        dup = next(v for v in out if out.count(v) > 1)
        err = ExtractionError(out.index(dup) + 1, [dup])
        err.args = (f"sources {[i + 1 for i, v in enumerate(out) if v == dup]} "
                    f"all reach sink {dup} (the map is not a bijection)",)
        raise err
    return tuple(out)


# ---------------------------------------------------------------------------
# group-layered graphs: layers of w groups with b vertices each; an edge tuple
# (i, a1, a2, sigma) connects group a1 of layer i to group a2 of layer i+1 by
# (a1, j) -> (a2, sigma(j)). Group (a, j) linearizes to (a-1)*b + j.

GroupEdge = tuple[int, int, int, Perm]


@dataclass
class GroupLayeredGraph:
    w: int
    d: int
    b: int
    tuples: list[GroupEdge]

    def expand(self, tag: str = "fixed") -> LayeredGraph:
        """Materialize tuple edges as concrete edges, all tagged tag."""
        layers = [self.w * self.b] * self.d
        edges: list[Edge] = []
        for i, a1, a2, sigma in self.tuples:
            base1 = (a1 - 1) * self.b
            base2 = (a2 - 1) * self.b
            for j in range(1, self.b + 1):
                edges.append((i, base1 + j, base2 + sigma[j - 1]))
        return LayeredGraph(layers, edges, [tag] * len(edges))
