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

    def to_json(self) -> bytes:
        """The JSON payload as bytes, as json.dumps(payload, sort_keys=True)
        would write it: layers, edges as [layer, u, v] lists, and one tag per
        edge unless every edge is tagged "fixed". Formatted from the columns."""
        edges = _format_rows(_EDGE_ROW, list(self.edges.T))[:-2]
        parts = [b'{"edges": [', edges, b'], "layers": ', json.dumps(self.layers).encode()]
        used = np.flatnonzero(np.bincount(self.tag_ids)).tolist()
        if any(self.tag_names[i] != "fixed" for i in used):
            tags = _format_rows(_TAG_ROW, [], self.tag_ids, list(map(_json_token, self.tag_names)))[:-2]
            parts += [b', "tags": [', tags, b"]"]
        return b"".join([*parts, b"}"])

    @classmethod
    def from_json(cls, data: str | bytes) -> tuple["LayeredGraph", dict]:
        """Read a document holding to_json's payload, as the whole document or
        as its "graph" entry: the graph, and the document's other entries.

        The document must be the bytes json.dumps writes with its default
        separators (keys in any order, one final newline allowed). The edge
        and tag arrays are cut out and read as columns, each checked by
        formatting it again with to_json's formatter; json.loads reads only
        the rest, which is checked by dumping it again. Bytes that these
        writers would not write raise ValueError naming the offset of the
        first of them."""
        if isinstance(data, str):
            data = data.encode()
        buf = np.frombuffer(data, dtype=np.uint8)
        cuts = []  # (start, end, stand-in) of each array read as columns
        key = data.find(b'"edges": [')
        if key < 0:
            raise ValueError('no "edges" array')
        start = key + len(b'"edges": ')
        edges, end = _read_edges(data, buf, start)
        cuts.append((start, end, b"NaN"))
        key = data.find(b'"tags": [')
        if key >= 0:
            start = key + len(b'"tags": ')
            tokens = _Tokens(lambda token: _json_token(json.loads(token)))
            tag_ids, end = _read_tags(data, buf, start, tokens, len(edges))
            cuts.append((start, end, b"Infinity"))
            names = tuple(map(json.loads, tokens.index))
        else:
            tag_ids, names = np.zeros(len(edges), dtype=np.uint16), ("fixed",)
        doc = _load_skeleton(data, sorted(cuts))
        payload = doc.pop("graph") if "graph" in doc else doc
        # each stand-in is the only one of its kind in the document, so
        # finding it in the payload shows that its array belongs there
        want = dict(zip(("edges", "tags"), ("NaN", "Infinity")[:len(cuts)]))
        if not isinstance(payload, dict) or want != {
                k: json.dumps(payload[k]) for k in ("edges", "tags") if k in payload}:
            raise ValueError('the "edges" and "tags" arrays must be entries of the graph payload')
        layers = list(map(operator.index, payload["layers"]))
        g = cls.from_columns(layers, edges, tag_ids, names)
        return g, ({} if payload is doc else doc)


_CHUNK = 1 << 16  # rows formatted at once, which bounds the temporaries
_WINDOW = 1 << 19  # input bytes read at once, which bounds the reader's temporaries
_EDGE_ROW = (b"[", b", ", b", ", b"], ")
_TAG_ROW = (b"", b", ")


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


def _json_token(name: str) -> bytes:
    return json.dumps(name).encode()


# The reader below parses optimistically, then proves the parse exact: it
# formats the parsed columns again with _format_rows and compares the bytes
# with the input, window by window. Equality leaves no room for floats, signs
# such as "+", leading zeros, stray tokens, int32 overflow or rows of the
# wrong shape, so the parsing needs no grammar of its own.


def _expect(data: bytes, lo: int, hi: int, want: bytes) -> None:
    """Raise ValueError naming the first offset where data[lo:hi] and want differ."""
    got = data[lo:hi]
    if got != want:
        at = lo + _first_difference(got, want)
        raise ValueError(f"byte {at}: expected {want[at - lo:at - lo + 12]!r}, "
                         f"found {data[at:at + 12]!r}")


def _first_difference(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    diff = np.flatnonzero(np.frombuffer(a, np.uint8, n) != np.frombuffer(b, np.uint8, n))
    return int(diff[0]) if len(diff) else n


def _byte_mask(chars: bytes) -> np.ndarray:
    mask = np.zeros(256, dtype=bool)
    mask[list(chars)] = True
    return mask


def _fields(buf: np.ndarray, lo: int, hi: int, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the runs of bytes in buf[lo:hi] outside the mask sep."""
    step = np.diff((~sep[buf[lo:hi]]).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    return np.flatnonzero(step == 1) + lo, np.flatnonzero(step == -1) + lo


def _words(buf: np.ndarray, lo: int, hi: int, fill: int) -> tuple[np.ndarray, int]:
    """(words, base): words[o - base] is the little-endian 8-byte word at
    offsets o..o+7 of buf[lo:hi], for lo - 16 <= o <= hi, with fill read
    outside [lo, hi)."""
    pad = np.full(hi - lo + 24, fill, dtype=np.uint8)
    pad[16:16 + hi - lo] = buf[lo:hi]
    return np.ndarray((len(pad) - 7,), dtype="<u8", buffer=pad, strides=(1,)), lo - 16


_U64 = np.uint64
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=_U64)  # keeps the k first bytes
_HIGH = ~_LOW[::-1]  # keeps the k last bytes


def _ints(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The int32 that each field buf[start:end] spells as an optional "-" and
    decimal digits. Other fields give values that do not format back to them.
    Eight digits are combined at a time, as one word (SWAR)."""
    if not len(starts):
        return np.empty(0, dtype=np.int32)
    words, base = _words(buf, int(starts.min()), int(ends.max()), ord("0"))
    neg = buf[starts] == ord("-")
    digits = ends - starts - neg
    val = np.zeros(len(starts), dtype=_U64)
    for j in range(-(-min(int(digits.max()), 16) // 8)):  # int32 has 10 digits
        # the word's last digits, the bytes before them masked to 0, which reads as a digit 0
        w = words[ends - 8 * (j + 1) - base] & _HIGH[np.clip(digits - 8 * j, 0, 8)]
        w = ((w & _U64(0x0F0F0F0F0F0F0F0F)) * _U64((10 << 8) + 1)) >> _U64(8)
        w = ((w & _U64(0x00FF00FF00FF00FF)) * _U64((100 << 16) + 1)) >> _U64(16)
        w = ((w & _U64(0x0000FFFF0000FFFF)) * _U64((10000 << 32) + 1)) >> _U64(32)
        val += w * _U64(10 ** (8 * j))
    val = val.astype(np.int64)
    return np.where(neg, -val, val).astype(np.int32)  # wraps outside int32, which the check sees


class _Tokens:
    """Exact ids for byte-string tokens, numbered in order of first
    appearance, and the bytes a writer gives each. write maps a token to
    those bytes, or raises ValueError for a token the writer never writes;
    its entry is then b"", which the check never finds equal to the token."""

    def __init__(self, write):
        self.write = write
        self.index: dict[bytes, int] = {}  # token -> id
        self.table: list[bytes] = []

    def ids(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The id of each token buf[start:end]. Tokens are grouped by a hash
        of their keys and compared whole with their group's first token, so
        the ids are exact; a token that differs (a hash collision) is looked
        up on its own."""
        width = 1 + -(-int((ends - starts).max(initial=0)) // 8)
        step = max(1, _WINDOW // width)  # tokens at once, which bounds the keys
        ids = np.empty(len(starts), dtype=np.uint32)
        for lo in range(0, len(starts), step):
            s, e = starts[lo:lo + step], ends[lo:lo + step]
            keys = _keys(buf, s, e, width)
            _, first, group = np.unique(_hash(keys), return_index=True, return_inverse=True)
            heads = np.empty(len(first), dtype=np.uint32)
            for g in np.argsort(first):  # in order of first appearance
                heads[g] = self._id(buf[s[first[g]]:e[first[g]]].tobytes())
            got = heads[group]
            for i in np.flatnonzero((keys != keys[:, first[group]]).any(axis=0)):
                got[i] = self._id(buf[s[i]:e[i]].tobytes())
            ids[lo:lo + step] = got
        return ids

    def _id(self, token: bytes) -> int:
        i = self.index.setdefault(token, len(self.index))
        if i == len(self.table):
            try:
                self.table.append(self.write(token))
            except ValueError:
                self.table.append(b"")
        return i


def _keys(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The key of each token buf[start:end], as a column of width words: its
    length, then its bytes as 8-byte words, zero past its end."""
    keys = np.empty((width, len(starts)), dtype=_U64)
    keys[0] = lens = ends - starts
    if len(starts):
        words, base = _words(buf, int(starts.min()), int(ends.max()), 0)
        for j in range(width - 1):
            keys[1 + j] = words[np.minimum(starts + 8 * j, ends) - base] & _LOW[np.clip(lens - 8 * j, 0, 8)]
    return keys


def _hash(keys: np.ndarray) -> np.ndarray:
    """A hash of each key column."""
    h = np.zeros(keys.shape[1], dtype=_U64)
    for j, word in enumerate(keys):
        h += word * _U64((2 * j + 1) * 0x9E3779B97F4A7C15 % (1 << 64))
    return h


def _read_edges(data: bytes, buf: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """The edge array to_json writes at data[start]: (E, 3) int32 rows and
    the offset just past the array."""
    if data[start:start + 2] == b"[]":
        return np.empty((0, 3), dtype=np.int32), start + 2
    end = data.find(b"]]", start) + 1  # the array's closing bracket
    if end == 0:
        raise ValueError(f"byte {start}: edge array has no end")
    # filled in place, window by window, so no window's rows outlive it
    edges = np.empty((data.count(b"]", start + 1, end), 3), dtype=np.int32)  # one "]" a row
    lo, at = start + 1, 0
    while lo < end:
        hi = data.find(b"], [", lo + _WINDOW, end)
        hi = end if hi < 0 else hi + 3  # whole rows
        vals = _ints(buf, *_fields(buf, lo, hi, _EDGE_SEP))
        rows = np.zeros((-(-len(vals) // 3), 3), dtype=np.int32)  # a short last row: the check sees it
        rows.flat[:len(vals)] = vals
        text = _format_rows(_EDGE_ROW, list(rows.T))
        _expect(data, lo, hi, text if hi < end else text[:-2])
        edges[at:at + len(rows)] = rows
        lo, at = hi, at + len(rows)
    return edges, end + 1


def _escaped(buf: np.ndarray, quotes: np.ndarray) -> np.ndarray:
    """Which of the quotes follow an odd run of backslashes."""
    odd = np.zeros(len(quotes), dtype=bool)
    at = quotes - 1
    run = np.flatnonzero(buf[at] == ord("\\"))
    while len(run):
        odd[run] ^= True
        at[run] -= 1
        run = run[buf[at[run]] == ord("\\")]
    return odd


def _read_tags(data: bytes, buf: np.ndarray, start: int, tokens: _Tokens,
               count: int) -> tuple[np.ndarray, int]:
    """The tag array to_json writes at data[start], which must hold count
    tags: an id per tag through tokens, which holds JSON string tokens, and
    the offset just past the array. The array ends at the first string
    followed by "]"; it is read window by window into one id column."""
    tag_ids = np.empty(count, dtype=np.uint16)
    lo, checked, at = start + 1, start + 1, 0
    quotes = np.empty(0, dtype=np.intp)  # a string's open quote left from the last window
    end = start + 1 if data[start:start + 2] == b"[]" else None  # the closing bracket
    while end is None:
        if lo >= len(data):
            raise ValueError(f"byte {start}: tag array has no end")
        hi = min(lo + _WINDOW, len(data))
        found = np.flatnonzero(buf[lo:hi] == ord('"')) + lo
        quotes = np.concatenate([quotes, found[~_escaped(buf, found)]])
        pairs = len(quotes) // 2
        opens, closes = quotes[0:2 * pairs:2], quotes[1:2 * pairs:2]
        last = np.flatnonzero(buf[np.minimum(closes + 1, len(buf) - 1)] == ord("]"))
        if len(last):
            opens, closes = opens[:last[0] + 1], closes[:last[0] + 1]
            end = int(closes[-1]) + 1
        if at + len(opens) > count:
            raise ValueError(f"byte {opens[count - at]}: more tags than the {count} edges")
        ids = tokens.ids(buf, opens, closes + 1)
        if len(tokens.table) > 1 << 16:
            raise ValueError("at most 65536 distinct tags")
        if len(ids):
            upto = closes[-1] + (1 if len(last) else 3)
            text = _format_rows(_TAG_ROW, [], ids, tokens.table)
            _expect(data, checked, upto, text[:-2] if len(last) else text)
            tag_ids[at:at + len(ids)] = ids
            checked, at = upto, at + len(ids)
        quotes, lo = quotes[2 * pairs:], hi
    if at != count:
        raise ValueError(f"byte {end}: {at} tags for {count} edges")
    return tag_ids, end + 1


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
        at = _first_difference(skeleton, want.encode())
        raise ValueError(f"byte {offset(at)}: not as json.dumps writes it")
    if not isinstance(doc, dict):
        raise ValueError("the document is not a JSON object")
    if len(constants) != len(cuts):
        raise ValueError("NaN and Infinity have no place in the document")
    return doc


_EDGE_SEP = _byte_mask(b"[], ")


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
