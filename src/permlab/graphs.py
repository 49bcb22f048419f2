"""Layered DAGs, the permutation-graph gadgets, concatenation, and extraction.

Vertices live in layers; an edge only ever joins layer i to layer i+1. Within a
layer, vertices are indexed 1..size. A graph "realizes" sigma when source i
(position i of the first layer, i <= m) reaches sink j (position j of the last
layer, j <= m) exactly when sigma(i) = j.

Every edge carries a provenance tag naming which input produced it; junction
matchings added by concatenation are tagged "fixed".

Edges are stored as columns: an (E, 3) int32 array of (layer, u, v) rows and
a uint16 tag id per edge indexing a small table of tag names. Every builder
and reader here works on whole columns.
"""

from __future__ import annotations

import json
import operator
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .perms import Perm

Edge = tuple[int, int, int]  # (layer index i, source pos in layer i, target pos in layer i+1)


class LayeredGraph:
    """layers[i] is the size of layer i+1; edges is an (E, 3) int32 array of
    (layer, u, v) rows; tag_ids[e] indexes tag_names for edge e."""

    def __init__(self, layers: Sequence[int], edges: Iterable[Edge] = (),
                 tags: Iterable[str] = ()):
        rows = list(edges)
        if set(map(len, rows)) - {3}:
            raise ValueError("every edge must be a (layer, u, v) triple")
        # array("i") rejects non-integers and values outside int32, where
        # numpy's converters would truncate floats and parse strings
        cols = np.frombuffer(array("i", chain.from_iterable(rows)), dtype=np.int32)
        tags = list(tags) or ["fixed"] * len(rows)
        if len(tags) != len(rows):
            raise ValueError("one tag per edge required")
        index = {t: i for i, t in enumerate(dict.fromkeys(tags))}
        if not all(isinstance(t, str) for t in index):
            raise TypeError("tags must be strings")
        if len(index) > 1 << 16:
            raise ValueError("at most 65536 distinct tags")
        self.layers = list(map(operator.index, layers))
        self.edges = cols.reshape(-1, 3)
        self.tag_ids = np.fromiter(map(index.__getitem__, tags), dtype=np.uint16, count=len(tags))
        self.tag_names = tuple(index)

    @classmethod
    def from_columns(cls, layers: Sequence[int], edges: np.ndarray, tag_ids: np.ndarray,
                     tag_names: tuple[str, ...]) -> "LayeredGraph":
        """Adopt ready-made columns: int32 (E, 3) edges and uint16 tag ids."""
        g = cls.__new__(cls)
        g.layers, g.edges, g.tag_ids, g.tag_names = list(layers), edges, tag_ids, tag_names
        return g

    @property
    def tags(self) -> list[str]:
        """One tag name per edge, in edge order (derived from the tag columns)."""
        return list(map(self.tag_names.__getitem__, self.tag_ids.tolist()))

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

    def global_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge's endpoints as int64 global ids, vertices numbered from 1
        layer by layer."""
        start = np.cumsum([0, *self.layers], dtype=np.int64)  # vertices before layer i+1
        li = self.edges[:, 0]
        return start[li - 1] + self.edges[:, 1], start[li] + self.edges[:, 2]

    def validate(self) -> None:
        """Raise ValueError naming the first edge, in edge order, that has a
        layer outside [1, depth-1] or an endpoint outside its layer."""
        li, u, v = self.edges.T
        bad_layer = (li < 1) | (li > self.depth - 1)
        sizes = np.array([0, *self.layers, 0], dtype=np.int64)
        at = np.where(bad_layer, 0, li)  # sizes[at] is u's layer, sizes[at + 1] is v's
        bad = bad_layer | (u < 1) | (u > sizes[at]) | (v < 1) | (v > sizes[at + 1])
        if bad.any():
            first = int(bad.argmax())
            el, eu, ev = self.edges[first].tolist()
            if bad_layer[first]:
                raise ValueError(f"edge layer {el} out of range")
            raise ValueError(f"edge ({el},{eu},{ev}) leaves its layers")

    @classmethod
    def from_dict(cls, d: dict) -> "LayeredGraph":
        return cls(d["layers"], d["edges"], d.get("tags", ()))

    def to_json(self) -> str:
        """The JSON payload, as json.dumps(payload, sort_keys=True) would write
        it: layers, edges as [layer, u, v] lists, and one tag per edge unless
        every edge is tagged "fixed". Formatted straight from the columns."""
        edges = _format_rows((b"[", b", ", b", ", b"], "), list(self.edges.T))[:-2]
        parts = [b'{"edges": [', edges, b'], "layers": ', json.dumps(self.layers).encode()]
        used = np.flatnonzero(np.bincount(self.tag_ids)).tolist()
        if any(self.tag_names[i] != "fixed" for i in used):
            table = [json.dumps(name).encode() for name in self.tag_names]
            tags = _format_rows((b"", b", "), [], self.tag_ids, table)[:-2]
            parts += [b', "tags": [', tags, b"]"]
        return b"".join([*parts, b"}"]).decode()

    @classmethod
    def from_json(cls, text: str) -> "LayeredGraph":
        return cls.from_dict(json.loads(text))


_CHUNK = 1 << 16  # rows formatted at once, which bounds the temporaries


def _decimal(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An int32 column's values as right-aligned ASCII digits, after a sign
    column when any is negative, with the mask of the characters str(int)
    would print."""
    v = col.astype(np.int64)
    a = np.abs(v).astype(np.uint32)  # every int32 magnitude fits, 2**31 too
    width = len(str(int(a.max())))
    chars = np.empty((len(a), width), dtype=np.uint8)
    rest = a
    for j in range(width - 1, -1, -1):  # units first; // by a scalar is the fast path
        high = rest // 10
        chars[:, j] = rest - 10 * high
        rest = high
    chars += ord("0")
    keep = a[:, None] >= 10 ** np.arange(width - 1, -1, -1, dtype=np.uint32)  # from the leading digit on
    keep[:, -1] = True  # zero prints as "0"
    if (v < 0).any():
        chars = np.concatenate([np.full((len(v), 1), ord("-"), np.uint8), chars], axis=1)
        keep = np.concatenate([(v < 0)[:, None], keep], axis=1)
    return chars, keep


def _format_rows(seps: Sequence[bytes], cols: Sequence[np.ndarray],
                 ids: np.ndarray | None = None, table: Sequence[bytes] = ()) -> bytes:
    """Rows seps[0] f0 seps[1] f1 ... seps[-1], concatenated. The fields are
    the int columns, each value as str(int) prints it, then, when ids is
    given, table[ids[row]]."""
    n = len(cols[0]) if cols else len(ids)
    if ids is not None:
        lens = np.array([len(t) for t in table], dtype=np.int64)
        names = np.zeros((len(table), int(lens.max(initial=0))), dtype=np.uint8)
        for row, name in zip(names, table):
            row[:len(name)] = np.frombuffer(name, dtype=np.uint8)
    out = []
    for lo in range(0, n, _CHUNK):
        fields = [_decimal(col[lo:lo + _CHUNK]) for col in cols]
        if ids is not None:
            part = ids[lo:lo + _CHUNK]
            fields.append((names[part], np.arange(names.shape[1]) < lens[part][:, None]))
        k = min(_CHUNK, n - lo)
        pieces = []
        for sep, field in zip(seps, [*fields, None]):
            sep_chars = np.broadcast_to(np.frombuffer(sep, dtype=np.uint8), (k, len(sep)))
            pieces.append((sep_chars, np.ones((k, len(sep)), dtype=bool)))
            if field is not None:
                pieces.append(field)
        chars, keep = zip(*pieces)
        out.append(np.concatenate(chars, axis=1)[np.concatenate(keep, axis=1)].tobytes())
    return b"".join(out)


def basic(sigma: Perm, tag: str = "fixed") -> LayeredGraph:
    """Two layers of size m joined by the matching i -> sigma(i)."""
    m = len(sigma)
    edges = np.empty((m, 3), dtype=np.int32)
    edges[:, 0] = 1
    edges[:, 1] = np.arange(1, m + 1)
    edges[:, 2] = sigma
    return LayeredGraph.from_columns([m, m], edges, np.zeros(m, dtype=np.uint16), (tag,))


def concat_all(graphs: Sequence[LayeredGraph]) -> LayeredGraph:
    """Chain graphs, graphs[-1] traversed first: paths traverse each graph in
    turn, crossing an identity matching from the last layer of one to the
    first layer of the next (truncated to the smaller of the two)."""
    if not graphs:
        raise ValueError("nothing to concatenate")
    ordered = list(reversed(graphs))  # traversal order
    junctions = [0] + [min(a.last_size(), b.first_size()) for a, b in zip(ordered, ordered[1:])]
    total = sum(junctions) + sum(len(g.edges) for g in ordered)
    edges = np.empty((total, 3), dtype=np.int32)
    tag_ids = np.empty(total, dtype=np.uint16)
    names: dict[str, int] = {}  # merged tag table
    layers: list[int] = []
    at = 0
    for g, junction in zip(ordered, junctions):
        if layers:
            span = slice(at, at + junction)
            edges[span, 0] = len(layers)
            edges[span, 1] = edges[span, 2] = np.arange(1, junction + 1)
            tag_ids[span] = names.setdefault("fixed", len(names))
            at += junction
        span = slice(at, at + len(g.edges))
        edges[span] = g.edges
        edges[span, 0] += len(layers)
        remap = np.array([names.setdefault(t, len(names)) for t in g.tag_names], dtype=np.uint16)
        tag_ids[span] = remap[g.tag_ids]
        at += len(g.edges)
        layers.extend(g.layers)
    return LayeredGraph.from_columns(layers, edges, tag_ids, tuple(names))


class ExtractionError(Exception):
    """Reachability does not describe a permutation; names the offending source."""

    def __init__(self, source: int, sinks: list[int]):
        self.source = source
        self.sinks = sinks
        super().__init__(
            f"source {source} reaches sinks {sinks} in the first m positions "
            f"(need exactly one)"
        )


def extract_permutation(g: LayeredGraph, m: int) -> Perm:
    """Recover sigma from reachability, or raise ExtractionError.

    Source i must reach exactly one of the first m sinks, and the map must be
    a bijection on [m]. One sweep over the layers carries, for every vertex,
    the set of sources reaching it as a Python int with bit i-1 for source i.
    """
    if g.first_size() < m or g.last_size() < m:
        raise ValueError(f"boundary layers smaller than m={m}")
    order = np.argsort(g.edges[:, 0], kind="stable")  # bucket by layer, keeping edge order
    li, us, vs = g.edges[order].T
    bounds = np.searchsorted(li, np.arange(1, g.depth + 1)).tolist()
    reach = [0] + [1 << i for i in range(m)] + [0] * (g.first_size() - m)  # index 0 unused
    for layer in range(1, g.depth):
        lo, hi = bounds[layer - 1], bounds[layer]
        nxt = [0] * (g.layers[layer] + 1)
        for u, v in zip(us[lo:hi].tolist(), vs[lo:hi].tolist()):
            bits = reach[u]
            if bits:
                nxt[v] |= bits
        reach = nxt
    hits: list[list[int]] = [[] for _ in range(m)]
    for sink in range(1, m + 1):
        bits = reach[sink]
        while bits:
            low = bits & -bits
            hits[low.bit_length() - 1].append(sink)
            bits ^= low
    for i, sinks in enumerate(hits, start=1):
        if len(sinks) != 1:
            raise ExtractionError(i, sinks)
    out = [sinks[0] for sinks in hits]
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
        b = self.b
        heads = np.array([t[:3] for t in self.tuples], dtype=np.int32).reshape(-1, 3)
        perms = np.array([t[3] for t in self.tuples], dtype=np.int32).reshape(-1, b)
        edges = np.empty((len(heads), b, 3), dtype=np.int32)
        edges[..., 0] = heads[:, :1]
        edges[..., 1] = (heads[:, 1:2] - 1) * b + np.arange(1, b + 1)
        edges[..., 2] = (heads[:, 2:3] - 1) * b + perms
        edges = edges.reshape(-1, 3)
        tag_ids = np.zeros(len(edges), dtype=np.uint16)
        return LayeredGraph.from_columns([self.w * b] * self.d, edges, tag_ids, (tag,))
