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
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import gen  # a cycle: gen builds its graphs here, and permlab/__init__ imports gen first
from .codec import (CHUNK, WINDOW, Window, first_difference, format_chunks, json_int, read_rows, tag_table,
                    used_tags)
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

    def id_blocks(self, order: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each edge's endpoints as global ids, vertices numbered from 1 layer
        by layer, in new int32 arrays, and its tag ids, a BLOCK of edges at a
        time: of the edges in their own order, or of edges order[0],
        order[1], ..., gathered a BLOCK of order at a time. Raise ValueError
        for 2**31 vertices or more."""
        if self.vertex_count >= 2**31:
            raise ValueError(f"{self.vertex_count} vertices do not fit in int32 ids")
        start = np.cumsum([0, *self.layers]).astype(np.int32)  # vertices before layer i+1
        for lo in range(0, len(self.edges), BLOCK):
            yield self._id_block(start, slice(lo, lo + BLOCK) if order is None else order[lo:lo + BLOCK])

    def _id_block(self, start: np.ndarray, at: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """id_blocks's arrays for the rows at, a slice or positions; the
        gathered rows are gone before the caller works on the block."""
        if not isinstance(at, slice):
            at = at.astype(np.intp)  # converted once for both gathers
        rows, tags = self.edges[at], self.tag_ids[at]
        li = rows[:, 0].astype(np.intp)
        li -= 1
        ub, vb = start.take(li), start[1:].take(li)
        ub += rows[:, 1]
        vb += rows[:, 2]
        return ub, vb, tags

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
        """to_json's bytes, a codec.CHUNK of edge rows or about a
        codec.WINDOW of tag rows at a time. The tags are checked before the
        first chunk is made."""
        runs, tags = _tag_runs(self.tag_ids)
        tagged = bool(set(used_tags(self.tag_names, tags)) - {"fixed"})
        return self._json_chunks(runs, tags if tagged else None)

    def _json_chunks(self, runs: np.ndarray, tags: np.ndarray | None) -> Iterator[bytes]:
        yield b'{"edges": ['
        yield from _trimmed(format_chunks(_EDGE_ROW, list(self.edges.T)))
        yield b'], "layers": ' + json.dumps(self.layers).encode()
        if tags is not None:
            yield b', "tags": ['
            yield from _tag_text(runs, tags, self.tag_names)
            yield b"]"
        yield b"}"

    @classmethod
    def from_json(cls, data: str | bytes | BinaryIO) -> tuple["LayeredGraph", dict]:
        """Read a document holding to_json's payload, as the whole document or
        as its "graph" entry: the graph, and the document's other entries.
        data is a binary file, or the document's bytes or text, which are
        read as an io.BytesIO.

        The document must be the bytes json.dumps writes with its default
        separators (keys in any order, one final newline allowed). The edge
        and tag arrays are cut out and read as columns by codec.read_rows,
        which checks them by formatting them again; json.loads reads only
        the rest, which is checked by dumping it again. Bytes that these
        writers would not write raise ValueError naming the offset of the
        first of them. The file is read through one codec.Window, which
        every search for a key or an array's end shares, so the read holds
        the graph's columns and a window, never the whole document.

        A permgraph document's header fixes its graph's layout
        (gen.header_layout). A tag array that is byte for byte the text of
        the layout's tags is taken as those tags without being read."""
        src = Window.of(data)
        key = src.find(b'"edges": [', 0)
        if key < 0:
            raise ValueError('no "edges" array')
        start = key + len(b'"edges": ')
        end, rows = _edge_array_end(src, start)
        cuts = [(start, end + 1, b"NaN")]  # (start, end, stand-in) of each array read as columns
        # edge rows, as the read below checks them, hold no '"', so the first
        # "tags" key lies outside them
        key = src.find(b'"tags": [', 0, start)
        key = src.find(b'"tags": [', end + 1) if key < 0 else key
        if key >= 0:
            at = key + len(b'"tags": ')
            cuts.append((at, src.find(b"]", at) + 1, b"Infinity"))  # no tag holds a "]"
        # the rest is read before the arrays, so that the layout is made
        # before their columns, but its errors come after theirs
        doc = error = None
        if cuts[-1][1] > 0:  # else the tag array has no end, named once the edges are read
            try:
                doc = _load_skeleton(src, sorted(cuts))
            except (ValueError, RecursionError) as err:  # raised after the arrays' errors
                error = err
        expected = None if doc is None else gen.header_layout(doc, rows)
        edges = np.empty((rows, 3), dtype=np.int32)
        read_rows(src, start + 1, end, _EDGE_ROW, list(edges.T), trim=2)
        if key < 0:
            tag_ids, names = np.zeros(len(edges), dtype=np.uint16), ("fixed",)
        else:
            start, end = cuts[1][0], cuts[1][1] - 1
            if end < 0:
                raise ValueError(f"byte {start}: tag array has no end")
            if expected is not None and expected.edges == len(edges) and \
                    _spells(src, start + 1, end, expected):
                tag_ids, names = expected.tag_ids(), expected.names
            else:
                tag_ids = np.empty(len(edges), dtype=np.uint16)
                try:
                    names = read_rows(src, start + 1, end, _TAG_ROW, [], tag_ids, trim=2)
                except ValueError:  # a wrong tag count is named first
                    tags = src.count(b", ", start, end) + (end > start + 1)  # a ", " between two tags
                    if tags > len(edges):
                        at = start + 1
                        for _ in range(len(edges)):  # to the first tag too many
                            at = src.find(b", ", at) + 2
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


def _edge_array_end(src: Window, start: int) -> tuple[int, int]:
    """The offset of the "]" closing the edge array that opens at offset
    start, its first "]]" unless it is empty, and its rows, one "]" each,
    found in one pass a codec.WINDOW at a time."""
    if src.read(start, start + 2) == b"[]":
        return start + 1, 0
    rows = 0
    for lo in range(start, src.size, WINDOW):
        # a byte past the window sees a "]]" across its end
        close = np.frombuffer(src.view(lo, lo + WINDOW + 1), dtype=np.uint8) == ord("]")
        pair = np.flatnonzero(close[:-1] & close[1:])
        if len(pair):
            return lo + int(pair[0]) + 1, rows + int(np.count_nonzero(close[:pair[0] + 1]))
        rows += int(np.count_nonzero(close[:WINDOW]))
    raise ValueError(f"byte {start}: edge array has no end")


def _spells(src: Window, lo: int, end: int, layout: gen.Layout) -> bool:
    """Whether the bytes lo..end are the tag array's rows for the layout's
    tags, compared a piece of _tag_text at a time."""
    for piece in _tag_text(layout.runs, layout.tags, layout.names):
        if not src.startswith(piece, lo, end):
            return False
        lo += len(piece)
    return lo == end


def _tag_runs(tag_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lengths and tag ids of the runs of equal tag ids, in order."""
    opens = np.ones(len(tag_ids), dtype=bool)  # a run starts here
    np.not_equal(tag_ids[1:], tag_ids[:-1], out=opens[1:])
    start = np.flatnonzero(opens)
    return np.diff(start, append=len(tag_ids)), tag_ids[start]


def _tag_text(runs: np.ndarray, tags: np.ndarray, names: Sequence[str]) -> Iterator[bytes]:
    """The tag array's rows, less the last row's trailing separator, for
    runs[r] edges tagged names[tags[r]], run after run, in pieces of at most
    about codec.WINDOW bytes, spelled a codec.CHUNK of runs at a time."""
    spelled = [_TAG_ROW[0] + name.encode() + _TAG_ROW[1] for name in names]
    cap = np.maximum(WINDOW // np.array(list(map(len, spelled)), dtype=np.int64), 1)  # rows a part
    yield from _trimmed(piece for lo in range(0, len(runs), CHUNK)
                        for piece in _run_pieces(runs[lo:lo + CHUNK], tags[lo:lo + CHUNK], spelled, cap))


def _run_pieces(runs: np.ndarray, tags: np.ndarray, spelled: list[bytes], cap: np.ndarray) -> Iterator[bytes]:
    """The rows of runs[r] edges spelled spelled[tags[r]], in pieces of
    about codec.WINDOW bytes. A run is cut into parts of at most cap[tag]
    rows, and the rows of each distinct part are spelled once."""
    cap = cap[tags]
    parts = -(-runs // cap)
    lengths, part_tags = np.repeat(cap, parts), np.repeat(tags, parts)
    lengths[np.cumsum(parts)[parts > 0] - 1] = (runs - (parts - 1) * cap)[parts > 0]  # each run's last part
    kinds, kind = np.unique(lengths * len(spelled) + part_tags, return_inverse=True)
    table = [spelled[key % len(spelled)] * (key // len(spelled)) for key in kinds.tolist()]
    ends = np.cumsum(np.array(list(map(len, table)), dtype=np.int64)[kind])
    cuts = np.searchsorted(ends, np.arange(WINDOW, ends[-1] if len(ends) else 0, WINDOW))
    return (b"".join(map(table.__getitem__, part.tolist())) for part in np.split(kind, cuts))


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


def _load_skeleton(src: Window, cuts: list[tuple[int, int, bytes]]) -> dict:
    """json.loads of the document with each cut, its bytes start..end,
    replaced by its stand-in, which must occur in the document only there.
    The rest must be what json.dumps writes, plus at most one final newline."""
    pieces, at = [], 0
    for start, end, stand_in in cuts:
        if start < at:
            raise ValueError(f"byte {start}: inside the array before it")
        pieces += [src.read(at, start), stand_in]
        at = end
    skeleton = b"".join([*pieces, src.read(at, src.size)])

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


def extract_permutation(g: LayeredGraph, m: int) -> Perm:
    """Recover sigma from reachability, or raise ExtractionError.

    Source i must reach exactly one of the first m sinks, and the map must be
    a bijection on [m]. A valid graph whose vertices all have in- and
    out-degree at most 1 is read off its path labels (path_labels); any
    other graph takes read_permutation's sweep.
    """
    try:
        g.validate()
    except ValueError:
        return read_permutation(g, m, None)
    return read_permutation(g, m, path_labels(g))


def read_permutation(g: LayeredGraph, m: int, roots: np.ndarray | None) -> Perm:
    """sigma, read off the valid graph g's path labels roots (path_labels),
    or, when roots is None, found by one sweep over the layers that carries,
    for every vertex, the set of sources reaching it as a Python int with bit
    i-1 for source i. Raise ValueError for boundary layers smaller than m,
    and ExtractionError as extract_permutation does."""
    if g.first_size() < m or g.last_size() < m:
        raise ValueError(f"boundary layers smaller than m={m}")
    hits = _swept_hits(g, m) if roots is None else _path_hits(g, m, roots)
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


def path_roots(up: np.ndarray) -> np.ndarray:
    """The root of every vertex under the parent map up, whose entries index
    up and where up[x] == x marks a root, by pointer doubling: after round k
    each vertex points 2**k steps up its path or at its root. Every vertex's
    parents must reach a root: up has no cycle. The pointers jump in up
    itself, which is overwritten (its callers never read it again), and in
    one more array, either of which is returned."""
    root, step = up, np.empty_like(up)
    for _ in range(len(up).bit_length() + 1):
        take_in_blocks(root, root, step)
        if all(np.array_equal(a, b) for a, b in in_blocks(step, root)):  # no whole-column compare
            break
        root, step = step, root
    return root


def path_labels(g: LayeredGraph) -> np.ndarray | None:
    """The valid graph g's path labels: each vertex's path root as an int32
    global id, indexed by global id (index 0 is no vertex). None unless every
    vertex has in- and out-degree at most 1, which makes the graph a union of
    vertex-disjoint paths, and the ids fit in int32."""
    if g.vertex_count >= 2**31:
        return None
    n = g.vertex_count
    up = np.arange(n + 1, dtype=np.int32)
    has_out, has_in = np.zeros(n + 1, dtype=bool), np.zeros(n + 1, dtype=bool)
    for gu, gv, _ in g.id_blocks():
        has_out[gu] = has_in[gv] = True
        up[gv] = gu
    if np.count_nonzero(has_out) < len(g.edges) or np.count_nonzero(has_in) < len(g.edges):
        return None  # two edges out of or into some vertex
    del has_out, has_in
    return path_roots(up)  # paths run forward through the layers, so none is cyclic


def _path_hits(g: LayeredGraph, m: int, roots: np.ndarray) -> list[list[int]]:
    """Each source's sinks among the first m, read off the path labels."""
    n = g.vertex_count
    hits: list[list[int]] = [[] for _ in range(m)]
    for sink, source in enumerate(roots[n - g.last_size() + 1:][:m].tolist(), start=1):
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
