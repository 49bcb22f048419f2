"""Layered DAGs, the permutation-graph gadgets, concatenation, and extraction.

Vertices live in layers; an edge only ever joins layer i to layer i+1. Within a
layer, vertices are indexed 1..size. A graph "realizes" sigma when source i
(position i of the first layer, i <= m) reaches sink j (position j of the last
layer, j <= m) exactly when sigma(i) = j.

Every edge carries a provenance tag naming which input produced it; junction
matchings added by concatenation are tagged "fixed". basic, concat_all and
GroupLayeredGraph.expand build graphs from parts for tests and replay
experiments; the generator lays its samples out in one buffer without them.

Edges are stored as columns: an (E, 3) int32 array of (layer, u, v) rows and
a uint16 tag id per edge indexing a small table of tag names. Every builder
and reader here works on whole columns, or on blocks of rows where numpy
would otherwise copy a whole int32 index column to int64.
"""

from __future__ import annotations

import json
import operator
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gen  # a cycle: gen builds its graphs here, and permlab/__init__ imports gen first
from .codec import WINDOW, first_difference, format_chunks, json_int, read_rows, tag_table, used_tags
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
        self.tag_ids, self.tag_names = tag_table(tags)
        self.layers = list(map(operator.index, layers))
        self.edges = cols.reshape(-1, 3)

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
        """Each edge's endpoints as int32 global ids, vertices numbered from 1
        layer by layer. Raise ValueError for 2**31 vertices or more."""
        if self.vertex_count >= 2**31:
            raise ValueError(f"{self.vertex_count} vertices do not fit in int32 ids")
        start = np.cumsum([0, *self.layers]).astype(np.int32)  # vertices before layer i+1
        gu, gv = (np.empty(len(self.edges), dtype=np.int32) for _ in range(2))
        for rows, ub, vb in in_blocks(self.edges, gu, gv):
            li = rows[:, 0].astype(np.intp)
            np.take(start, li - 1, out=ub)
            np.take(start, li, out=vb)
            ub += rows[:, 1]
            vb += rows[:, 2]
        return gu, gv

    def validate(self) -> None:
        """Raise ValueError for a graph with no layers or a layer of negative
        size, else naming the first edge, in edge order, that has a layer
        outside [1, depth-1] or an endpoint outside its layer."""
        if not self.layers:
            raise ValueError("graph has no layers")
        if min(self.layers) < 0:
            raise ValueError(f"negative layer size {min(self.layers)}")
        sizes = np.array([0, *self.layers, 0], dtype=np.int64)
        for (rows,) in in_blocks(self.edges):
            li, u, v = rows.T
            bad_layer = (li < 1) | (li > self.depth - 1)
            # sizes[at] is u's layer, sizes[at + 1] is v's
            at = np.where(bad_layer, 0, li).astype(np.intp)
            bad = bad_layer | (u < 1) | (u > sizes[at]) | (v < 1) | (v > sizes[at + 1])
            if bad.any():
                first = int(bad.argmax())
                el, eu, ev = rows[first].tolist()
                if bad_layer[first]:
                    raise ValueError(f"edge layer {el} out of range")
                raise ValueError(f"edge ({el},{eu},{ev}) leaves its layers")

    def to_json(self) -> bytes:
        """The JSON payload as bytes, as json.dumps(payload, sort_keys=True)
        would write it: layers, edges as [layer, u, v] lists, and one tag per
        edge unless every edge is tagged "fixed". Formatted from the columns.
        Raises ValueError for a used tag outside codec.TAG's alphabet."""
        return b"".join(self.json_chunks())

    def json_chunks(self) -> Iterator[bytes]:
        """to_json's bytes, a codec.CHUNK of edge or tag rows at a time. The
        tags are checked before the first chunk is made."""
        tagged = bool(set(used_tags(self.tag_names, self.tag_ids)) - {"fixed"})
        return self._json_chunks(tagged)

    def _json_chunks(self, tagged: bool) -> Iterator[bytes]:
        yield b'{"edges": ['
        yield from _trimmed(format_chunks(_EDGE_ROW, list(self.edges.T)))
        yield b'], "layers": ' + json.dumps(self.layers).encode()
        if tagged:
            yield b', "tags": ['
            table = [name.encode() for name in self.tag_names]
            yield from _trimmed(format_chunks(_TAG_ROW, [], self.tag_ids, table))
            yield b"]"
        yield b"}"

    @classmethod
    def from_json(cls, data: str | bytes) -> tuple["LayeredGraph", dict]:
        """Read a document holding to_json's payload, as the whole document or
        as its "graph" entry: the graph, and the document's other entries.

        The document must be the bytes json.dumps writes with its default
        separators (keys in any order, one final newline allowed). The edge
        and tag arrays are cut out and read as columns by codec.read_rows,
        which checks them by formatting them again; json.loads reads only
        the rest, which is checked by dumping it again. Bytes that these
        writers would not write raise ValueError naming the offset of the
        first of them.

        A permgraph document's header fixes its graph's layout
        (gen.header_layout). A tag array that is byte for byte the text of
        the layout's tags is taken as those tags without being read."""
        if isinstance(data, str):
            data = data.encode()
        key = data.find(b'"edges": [')
        if key < 0:
            raise ValueError('no "edges" array')
        start = key + len(b'"edges": ')
        end, rows = _edge_array_end(data, start)
        cuts = [(start, end + 1, b"NaN")]  # (start, end, stand-in) of each array read as columns
        # edge rows, as the read below checks them, hold no '"', so the first
        # "tags" key lies outside them
        key = data.find(b'"tags": [', 0, start)
        key = data.find(b'"tags": [', end + 1) if key < 0 else key
        if key >= 0:
            at = key + len(b'"tags": ')
            cuts.append((at, data.find(b"]", at) + 1, b"Infinity"))  # no tag holds a "]"
        # the rest is read before the arrays, so that the layout is made
        # before their columns, but its errors come after theirs
        doc = error = None
        if cuts[-1][1] > 0:  # else the tag array has no end, named once the edges are read
            try:
                doc = _load_skeleton(data, sorted(cuts))
            except (ValueError, RecursionError) as err:  # raised after the arrays' errors
                error = err
        expected = None if doc is None else gen.header_layout(doc, rows)
        edges = np.empty((rows, 3), dtype=np.int32)
        read_rows(data, start + 1, end, _EDGE_ROW, list(edges.T), trim=2)
        if key < 0:
            tag_ids, names = np.zeros(len(edges), dtype=np.uint16), ("fixed",)
        else:
            start, end = cuts[1][0], cuts[1][1] - 1
            if end < 0:
                raise ValueError(f"byte {start}: tag array has no end")
            if expected is not None and expected.edges == len(edges) and \
                    _spells(data, start + 1, end, expected):
                tag_ids, names = expected.tag_ids(), expected.names
            else:
                tag_ids = np.empty(len(edges), dtype=np.uint16)
                try:
                    names = read_rows(data, start + 1, end, _TAG_ROW, [], tag_ids, trim=2)
                except ValueError:  # a wrong tag count is named first
                    tags = data.count(b", ", start, end) + (end > start + 1)  # a ", " between two tags
                    if tags > len(edges):
                        at = start + 1
                        for _ in range(len(edges)):  # to the first tag too many
                            at = data.find(b", ", at) + 2
                        raise ValueError(f"byte {at}: more tags than the {len(edges)} edges") from None
                    if tags < len(edges):
                        raise ValueError(f"byte {end}: {tags} tags for {len(edges)} edges") from None
                    raise
        if error is not None:
            raise error
        payload = doc.pop("graph") if "graph" in doc else doc
        # each stand-in is the only one of its kind in the document, so
        # finding it in the payload shows that its array belongs there
        want = dict(zip(("edges", "tags"), ("NaN", "Infinity")[:len(cuts)]))
        if not isinstance(payload, dict) or want != {
                k: json.dumps(payload[k]) for k in ("edges", "tags") if k in payload}:
            raise ValueError('the "edges" and "tags" arrays must be entries of the graph payload')
        layers = [json_int(size, "layers") for size in payload["layers"]]
        g = cls.from_columns(layers, edges, tag_ids, names)
        return g, ({} if payload is doc else doc)


def _edge_array_end(data: bytes, start: int) -> tuple[int, int]:
    """The offset of the "]" closing the edge array that opens at
    data[start], its first "]]" unless it is empty, and its rows, one "]"
    each, found in one pass a codec.WINDOW at a time."""
    if data[start:start + 2] == b"[]":
        return start + 1, 0
    buf = np.frombuffer(data, dtype=np.uint8)
    rows = 0
    for lo in range(start, len(data), WINDOW):
        close = buf[lo:lo + WINDOW + 1] == ord("]")  # a byte past the window sees a "]]" across its end
        pair = np.flatnonzero(close[:-1] & close[1:])
        if len(pair):
            return lo + int(pair[0]) + 1, rows + int(np.count_nonzero(close[:pair[0] + 1]))
        rows += int(np.count_nonzero(close[:WINDOW]))
    raise ValueError(f"byte {start}: edge array has no end")


def _spells(data: bytes, lo: int, end: int, layout: gen.Layout) -> bool:
    """Whether data[lo:end] is the tag array's rows for the layout's tags,
    compared a piece of about codec.WINDOW bytes at a time; the rows of each
    distinct run are spelled once."""
    spelled = [_TAG_ROW[0] + name.encode() + _TAG_ROW[1] for name in layout.names]
    kinds, kind = np.unique(layout.runs * len(spelled) + layout.tags, return_inverse=True)
    table = [spelled[key % len(spelled)] * (key // len(spelled)) for key in kinds.tolist()]
    ends = np.cumsum(np.array(list(map(len, table)))[kind])
    pieces = (b"".join(map(table.__getitem__, part.tolist()))
              for part in np.split(kind, np.searchsorted(ends, np.arange(WINDOW, ends[-1], WINDOW))))
    for piece in _trimmed(pieces):
        if not data.startswith(piece, lo, end):
            return False
        lo += len(piece)
    return lo == end


_EDGE_ROW = (b"[", b", ", b", ", b"], ")
_TAG_ROW = (b'"', b'", ')


def _trimmed(chunks: Iterator[bytes]) -> Iterator[bytes]:
    """The chunks of rows less the two bytes of the last row's trailing
    separator, which the JSON array does not have."""
    last = None
    for chunk in chunks:
        if last is not None:
            yield last
        last = chunk
    if last is not None:
        yield last[:-2]


def _load_skeleton(data: bytes, cuts: list[tuple[int, int, bytes]]) -> dict:
    """json.loads of data with each cut data[start:end] replaced by its
    stand-in, which must occur in the document only there. The rest must be
    what json.dumps writes, plus at most one final newline."""
    pieces, at = [], 0
    for start, end, stand_in in cuts:
        if start < at:
            raise ValueError(f"byte {start}: inside the array before it")
        pieces += [data[at:start], stand_in]
        at = end
    skeleton = b"".join([*pieces, data[at:]])

    def offset(pos: int) -> int:  # from the skeleton to the document
        for start, end, stand_in in cuts:
            if pos < start:
                break
            pos = start if pos < start + len(stand_in) else pos - len(stand_in) + end - start
        return pos

    constants: list[str] = []
    try:
        text = skeleton.decode("ascii")
        doc = json.loads(text, parse_constant=lambda c: constants.append(c) or float(c))
    except UnicodeDecodeError as err:
        raise ValueError(f"byte {offset(err.start)}: not ASCII") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"byte {offset(err.pos)}: {err.msg}") from None
    want = json.dumps(doc) + ("\n" if text.endswith("\n") else "")
    if text != want:
        at = first_difference(skeleton, want.encode())
        raise ValueError(f"byte {offset(at)}: not as json.dumps writes it")
    if not isinstance(doc, dict):
        raise ValueError("the document is not a JSON object")
    if len(constants) != len(cuts):
        raise ValueError("NaN and Infinity have no place in the document")
    return doc



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


def extract_permutation(g: LayeredGraph, m: int, *, validated: bool = False) -> Perm:
    """Recover sigma from reachability, or raise ExtractionError.

    Source i must reach exactly one of the first m sinks, and the map must be
    a bijection on [m]. A valid graph whose vertices all have in- and
    out-degree at most 1 is a union of vertex-disjoint paths, and each sink's
    source is its path's root (path_roots). Any other graph takes one sweep
    over the layers that carries, for every vertex, the set of sources
    reaching it as a Python int with bit i-1 for source i.

    validated says that g.validate() has passed, so it is not run again.
    """
    if g.first_size() < m or g.last_size() < m:
        raise ValueError(f"boundary layers smaller than m={m}")
    hits = _path_hits(g, m, validated)
    if hits is None:
        hits = _swept_hits(g, m)
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


BLOCK = 1 << 16  # rows per block of in_blocks


def in_blocks(*columns: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Aligned views of the columns, BLOCK rows at a time. numpy copies an
    int32 index array to int64 before it gathers or scatters by it; a block
    at a time, that copy stays small."""
    for at in range(0, len(columns[0]), BLOCK):
        yield tuple(c[at:at + BLOCK] for c in columns)


def take_in_blocks(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = table[index[i]], a block of index at a time; index's entries
    must index table."""
    for at, to in in_blocks(index, out):
        np.take(table, at, out=to, mode="clip")
    return out


def path_roots(up: np.ndarray) -> np.ndarray | None:
    """The root of every vertex under the parent map up, whose entries index
    up and where up[x] == x marks a root, by pointer doubling: after round k
    each vertex points 2**k steps up its path or at its root. None when some
    vertex's parents run into a cycle and never reach a root."""
    root, step = up.copy(), np.empty_like(up)
    for _ in range(len(up).bit_length() + 1):
        take_in_blocks(root, root, step)
        if np.array_equal(step, root):
            break
        root, step = step, root
    return root if np.array_equal(take_in_blocks(up, root, step), root) else None


def _path_hits(g: LayeredGraph, m: int, validated: bool = False) -> list[list[int]] | None:
    """Each source's sinks among the first m, read off path roots, or None
    unless the graph is valid (validated: known to be) and no vertex has two
    edges in or two out."""
    try:
        if not validated:
            g.validate()
        gu, gv = g.global_ids()
    except ValueError:  # invalid, or too many vertices for int32 ids
        return None
    n = g.vertex_count

    def once_each(ids: np.ndarray) -> bool:
        seen = np.zeros(n + 1, dtype=bool)
        seen[ids] = True
        return np.count_nonzero(seen) == len(ids)

    if not (once_each(gu) and once_each(gv)):
        return None
    up = np.arange(n + 1, dtype=np.int32)  # id 0 is no vertex
    up[gv] = gu
    del gu, gv
    root = path_roots(up)  # paths run forward through the layers, so none is cyclic
    del up
    hits: list[list[int]] = [[] for _ in range(m)]
    for sink, source in enumerate(root[n - g.last_size() + 1:][:m].tolist(), start=1):
        if source <= m:  # a path from one of the first m sources
            hits[source - 1].append(sink)
    return hits


def _swept_hits(g: LayeredGraph, m: int) -> list[list[int]]:
    """Each source's sinks among the first m, in one sweep over the layers."""
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
    return hits


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
