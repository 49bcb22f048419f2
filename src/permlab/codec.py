"""The artifacts' text: graph.json's edge and tag arrays and stream.txt's lines.

All three are rows of fields between fixed separators: int32 fields as
str(int) prints them, then at most one tag field. format_rows writes rows
from columns (format_chunks the same bytes a chunk at a time). read_rows
reads them back into columns, window by window: it parses optimistically,
then proves the parse exact by formatting the parsed columns again and
comparing the bytes with the input. Equality leaves no room for floats,
signs such as "+", leading zeros, stray tokens, int32 overflow or rows of
the wrong shape, so the parsing needs no grammar of its own.

A tag is a non-empty run of ASCII letters, digits and "_:.-". It needs no
JSON escaping and holds no separator byte, so a tag field ends at the
first separator.
"""

from __future__ import annotations

import json
import re
from typing import Iterator, Sequence

import numpy as np

CHUNK = 1 << 16  # rows formatted at once, which bounds the temporaries
WINDOW = 1 << 19  # input bytes read at once, which bounds the reader's temporaries
TAG = re.compile(r"[A-Za-z0-9_:.-]+")


def json_int(v, name: str) -> int:
    """v, or ValueError unless it is a JSON integer (json reads true and
    false as bools, which are ints to Python)."""
    if type(v) is not int:
        raise ValueError(f"{name}: {json.dumps(v)} is not a JSON integer")
    return v


def tag_table(tags: Sequence[str], dtype: type) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each tag's id, as dtype, into the tag names numbered in order of first
    appearance, and those names. Raises TypeError for a tag that is no
    string and ValueError for more names than dtype has ids."""
    index = {t: i for i, t in enumerate(dict.fromkeys(tags))}
    if not all(isinstance(t, str) for t in index):
        raise TypeError("tags must be strings")
    if len(index) > np.iinfo(dtype).max + 1:
        raise ValueError(f"at most {np.iinfo(dtype).max + 1} distinct tags")
    return np.fromiter(map(index.__getitem__, tags), dtype=dtype, count=len(tags)), tuple(index)


def used_tags(names: Sequence[str], ids: np.ndarray) -> list[str]:
    """The names that ids use, in table order. Raises ValueError for one
    that is no tag."""
    used = [names[i] for i in np.flatnonzero(np.bincount(ids)).tolist()]
    for name in used:
        if not TAG.fullmatch(name):
            raise ValueError(f"tag {name!r} is not a non-empty run of ASCII letters, digits and _:.-")
    return used


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


def format_rows(seps: Sequence[bytes], cols: Sequence[np.ndarray],
                ids: np.ndarray | None = None, table: Sequence[bytes] = ()) -> bytes:
    """Rows seps[0] f0 seps[1] f1 ... seps[-1], concatenated. The fields are
    the int columns, each value as str(int) prints it, then, when ids is
    given, table[ids[row]]."""
    return b"".join(format_chunks(seps, cols, ids, table))


def format_chunks(seps: Sequence[bytes], cols: Sequence[np.ndarray],
                  ids: np.ndarray | None = None, table: Sequence[bytes] = ()) -> Iterator[bytes]:
    """format_rows's bytes, CHUNK rows at a time."""
    n = len(cols[0]) if cols else len(ids)
    if ids is not None:
        lens = np.array([len(t) for t in table], dtype=np.int64)
        names = np.zeros((len(table), int(lens.max(initial=0))), dtype=np.uint8)
        for row, name in zip(names, table):
            row[:len(name)] = np.frombuffer(name, dtype=np.uint8)
    for lo in range(0, n, CHUNK):
        fields = [_decimal(col[lo:lo + CHUNK]) for col in cols]
        if ids is not None:
            part = ids[lo:lo + CHUNK]
            fields.append((names[part], np.arange(names.shape[1]) < lens[part][:, None]))
        k = min(CHUNK, n - lo)
        pieces = []
        for sep, field in zip(seps, [*fields, None]):
            sep_chars = np.broadcast_to(np.frombuffer(sep, dtype=np.uint8), (k, len(sep)))
            pieces.append((sep_chars, np.ones((k, len(sep)), dtype=bool)))
            if field is not None:
                pieces.append(field)
        chars, keep = zip(*pieces)
        yield np.concatenate(chars, axis=1)[np.concatenate(keep, axis=1)].tobytes()


class FormatError(ValueError):
    """Bytes that the writers here would not write, from data[offset] on."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


def expect(data: bytes, lo: int, hi: int, want: bytes) -> None:
    """Raise FormatError naming the first offset where data[lo:hi] and want differ."""
    got = data[lo:hi]
    if got != want:
        at = lo + first_difference(got, want)
        raise FormatError(at, f"expected {want[at - lo:at - lo + 12]!r}, found {data[at:at + 12]!r}")


def first_difference(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    diff = np.flatnonzero(np.frombuffer(a, np.uint8, n) != np.frombuffer(b, np.uint8, n))
    return int(diff[0]) if len(diff) else n


def read_rows(data: bytes, lo: int, end: int, seps: Sequence[bytes], cols: Sequence[np.ndarray],
              ids: np.ndarray | None = None, trim: int = 0) -> tuple[str, ...]:
    """Read data[lo:end], which must be format_rows(seps, ...) less its last
    trim bytes, into the given columns, each as long as the rows it must
    hold: int32 columns for the int fields, then, when ids is given, the tag
    ids. Returns the tag names, numbered in order of first appearance.
    Bytes format_rows would not write raise FormatError naming the offset of
    the first of them."""
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = np.zeros(256, dtype=bool)
    sep[list(b"".join(seps))] = True
    width = len(seps) - 1  # fields a row
    ints = width - (ids is not None)
    index: dict[bytes, int] = {}  # token -> tag id
    table: list[bytes] = []  # what format_rows writes for each token
    at = 0
    while lo < end:
        hi = data.find(seps[-1] + seps[0], lo + WINDOW, end)
        hi = end if hi < 0 else hi + len(seps[-1])  # whole rows
        starts, ends = _fields(buf, lo, hi, sep)
        rows = -(-len(starts) // width)
        # rows of width fields; a short last row is completed with the
        # window's first fields, which the check sees
        starts, ends = np.resize(starts, (rows, width)), np.resize(ends, (rows, width))
        vals = _ints(buf, starts[:, :ints].ravel(), ends[:, :ints].ravel()).reshape(rows, ints)
        got = None
        if ids is not None:
            got = _token_ids(buf, starts[:, -1], ends[:, -1], index, table)
            if len(index) > np.iinfo(ids.dtype).max + 1:
                raise ValueError(f"at most {np.iinfo(ids.dtype).max + 1} distinct tags")
        text = format_rows(seps, list(vals.T), got, table)
        expect(data, lo, hi, text if hi < end else text[:len(text) - trim])
        # filled in place, so no window's rows outlive it
        for out, col in zip(cols, vals.T):
            out[at:at + rows] = col
        if ids is not None:
            ids[at:at + rows] = got
        lo, at = hi, at + rows
    return tuple(token.decode() for token in index)


def _fields(buf: np.ndarray, lo: int, hi: int, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the runs of bytes in buf[lo:hi] outside the mask sep."""
    inside = np.zeros(hi - lo + 2, dtype=bool)
    np.logical_not(np.take(sep, buf[lo:hi]), out=inside[1:-1])
    bounds = np.flatnonzero(inside[1:] != inside[:-1]) + lo  # each run's start, then its end
    return bounds[0::2], bounds[1::2]


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


def _token_ids(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               index: dict[bytes, int], table: list[bytes]) -> np.ndarray:
    """The id in index of each token buf[start:end]. A new token gets the
    next id and, in table, what format_rows writes for it: the token itself
    when it is a tag, otherwise b"", which the check never finds equal to it.
    A key holds a token's length and all its bytes, so sorting the keys
    groups exactly the equal tokens."""
    width = 1 + -(-int((ends - starts).max(initial=0)) // 8)
    step = max(1, WINDOW // width)  # tokens at once, which bounds the keys
    ids = np.empty(len(starts), dtype=np.int64)
    for lo in range(0, len(starts), step):
        s, e = starts[lo:lo + step], ends[lo:lo + step]
        keys = _keys(buf, s, e, width)
        order = np.lexsort(keys)  # stable: each run of equal keys starts at its first appearance
        by_key = keys[:, order]
        run = np.ones(len(order), dtype=bool)
        run[1:] = (by_key[:, 1:] != by_key[:, :-1]).any(axis=0)
        heads = order[run]
        head_ids = np.empty(len(heads), dtype=np.int64)
        for g in np.argsort(heads).tolist():  # in order of first appearance
            token = buf[s[heads[g]]:e[heads[g]]].tobytes()
            head_ids[g] = index.setdefault(token, len(index))
            if head_ids[g] == len(table):
                table.append(token if TAG.fullmatch(token.decode("latin-1")) else b"")
        ids[lo + order] = head_ids[np.cumsum(run) - 1]
    return ids


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
