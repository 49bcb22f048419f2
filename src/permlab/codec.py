"""The artifacts' text: graph.json's edge and tag arrays and stream.txt's lines.

All three are rows of fields between fixed separators: int32 fields as
str(int) prints them, then at most one tag field. format_rows writes rows
from columns (format_chunks the same bytes a chunk at a time).

Each chunk of rows is laid out as one byte matrix, a matrix row a text row.
Each separator and field has its own block of columns: an int field is as
wide as its widest value in the chunk, digits right-aligned after a sign
column when some value is negative; a tag field is as wide as the longest
name. Every cell a row does not print holds 0 (leading zeros, the sign
cell of a value that is not negative, a short name's padding), so dropping
the 0 bytes gives the chunk's text. No separator, digit or tag byte is 0:
format_chunks refuses a separator or name holding one.

read_rows reads rows back into columns, window by window: it parses
optimistically, then proves the parse exact by formatting the parsed
columns again and comparing the bytes with the input. Equality leaves no
room for floats, signs such as "+", leading zeros, stray tokens (a NUL
among them, since the formatter writes none), int32 overflow or rows of
the wrong shape, so the parsing needs no grammar of its own. The parse
copies little: each field's start and end are a view of one array of run
bounds, ints are combined in place, and a tag's id is looked up among the
tags already numbered before any sort.

The input is a binary file read through a Window, one reused buffer that
readinto fills (bytes are read as an io.BytesIO). The searches around a
read, for a key, an array's end or a line count, run over the same Window
at absolute offsets, so a reader holds its columns and one window of the
file, never the whole file.

A tag is a non-empty run of ASCII letters, digits and "_:.-". It needs no
JSON escaping and holds no separator byte, so a tag field ends at the
first separator.
"""

from __future__ import annotations

import io
import json
import re
from typing import BinaryIO, Iterator, Sequence

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


def tag_table(tags: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each tag's uint16 id into the tag names numbered in order of first
    appearance, and those names. Raises TypeError for a tag that is no
    string and ValueError for more than 65536 names."""
    index = {t: i for i, t in enumerate(dict.fromkeys(tags))}
    if not all(isinstance(t, str) for t in index):
        raise TypeError("tags must be strings")
    if len(index) > 1 << 16:
        raise ValueError("at most 65536 distinct tags")
    return np.fromiter(map(index.__getitem__, tags), dtype=np.uint16, count=len(tags)), tuple(index)


def used_tags(names: Sequence[str], ids: np.ndarray) -> list[str]:
    """The names that ids use, in table order. Raises ValueError for one
    that is no tag."""
    seen = np.zeros(len(names), dtype=bool)
    for lo in range(0, len(ids), CHUNK):  # bincount would copy all the ids to intp at once
        seen[ids[lo:lo + CHUNK]] = True
    used = [names[i] for i in np.flatnonzero(seen).tolist()]
    for name in used:
        if not TAG.fullmatch(name):
            raise ValueError(f"tag {name!r} is not a non-empty run of ASCII letters, digits and _:.-")
    return used


def format_rows(seps: Sequence[bytes], cols: Sequence[np.ndarray],
                ids: np.ndarray | None = None, table: Sequence[bytes] = ()) -> bytes:
    """Rows seps[0] f0 seps[1] f1 ... seps[-1], concatenated. The fields are
    the int32 columns, each value as str(int) prints it, then, when ids is
    given, table[ids[row]]."""
    return b"".join(format_chunks(seps, cols, ids, table))


def format_chunks(seps: Sequence[bytes], cols: Sequence[np.ndarray],
                  ids: np.ndarray | None = None, table: Sequence[bytes] = ()) -> Iterator[bytes]:
    """format_rows's bytes, CHUNK rows at a time, each chunk formatted when
    it is reached. Raises ValueError, before the first chunk, for a separator
    or table entry holding a NUL byte, which would be taken for an unprinted
    cell, and TypeError for an int column that is not int32."""
    if any(0 in piece for piece in (*seps, *table)):
        raise ValueError("a separator or table entry holds a NUL byte")
    if any(col.dtype != np.int32 for col in cols):
        raise TypeError("the int columns must be int32")
    names = np.zeros((len(table), max([1, *map(len, table)])), dtype=np.uint8)  # 0-padded
    for row, name in zip(names, table):
        row[:len(name)] = np.frombuffer(name, dtype=np.uint8)
    names = names.view(f"V{names.shape[1]}")[:, 0]  # a name an item, copied as one
    n = len(cols[0]) if cols else len(ids)
    return (_chunk(seps, [col[lo:lo + CHUNK] for col in cols],
                   None if ids is None else names[ids[lo:lo + CHUNK]]) for lo in range(0, n, CHUNK))


def _chunk(seps: Sequence[bytes], parts: list[np.ndarray], tags: np.ndarray | None) -> bytearray:
    """The rows of the int32 columns parts and of the 0-padded tags, laid
    out as one byte matrix (a matrix row per text row, a column block per
    separator or field) that starts as copies of one template row holding
    the separators, then compacted by dropping its 0 cells."""
    mags = [np.abs(part).view(np.uint32) for part in parts]  # abs(-2**31) too
    signs = [(part < 0).view(np.uint8) for part in parts]
    signs = [sign if sign.any() else None for sign in signs]  # a sign column only when needed
    widths = [(sign is not None) + len(str(int(mag.max()))) for mag, sign in zip(mags, signs)]
    widths += [] if tags is None else [tags.itemsize]
    template = b"".join(sep + bytes(width) for sep, width in zip(seps, [*widths, 0]))  # a row, 0 in the fields
    text = bytearray(template) * (len(parts[0]) if parts else len(tags))
    matrix = np.frombuffer(text, dtype=np.uint8).reshape(-1, len(template))
    at = 0
    for i, (sep, width) in enumerate(zip(seps, [*widths, 0])):
        at += len(sep)
        field = matrix[:, at:at + width]
        if i < len(parts):
            if signs[i] is not None:
                np.multiply(signs[i], ord("-"), out=field[:, 0])
                field = field[:, 1:]
            _digits(field, mags[i])
        elif i == len(parts) and tags is not None:
            field.view(tags.dtype)[:, 0] = tags
        at += width
    return text.translate(None, b"\0")


def _digits(out: np.ndarray, mags: np.ndarray) -> None:
    """Write the uint32 values mags right-aligned into the columns of out as
    ASCII digits, with 0 in place of each leading zero."""
    rest, low = mags, mags.astype(np.uint8)  # low: rest's last byte, enough for its last digit
    for j in range(out.shape[1] - 1, -1, -1):  # units first; // by a scalar is the fast path
        high = rest // 10
        high_low = high.astype(np.uint8)
        digit = low - high_low * np.uint8(10) + np.uint8(ord("0"))  # mod 256
        if j < out.shape[1] - 1:  # the units digit always prints, so zero prints as "0"
            digit *= (rest != 0).view(np.uint8)  # a leading zero prints nothing
        out[:, j] = digit
        rest, low = high, high_low


class FormatError(ValueError):
    """Bytes that the writers here would not write, from data[offset] on."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


def expect(src: "Window", lo: int, hi: int, want: bytes) -> None:
    """Raise FormatError naming the first offset where src's bytes lo..hi and want differ."""
    if hi - lo != len(want) or not src.startswith(want, lo, hi):
        at = lo + first_difference(src.view(lo, hi), want)
        raise FormatError(at, f"expected {want[at - lo:at - lo + 12]!r}, found {src.read(at, at + 12)!r}")


def first_difference(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    diff = np.flatnonzero(np.frombuffer(a, np.uint8, n) != np.frombuffer(b, np.uint8, n))
    return int(diff[0]) if len(diff) else n


class Window:
    """A binary file read through one reused buffer, which readinto fills:
    buf[:hi - lo] holds the file's bytes lo..hi. Every read and search
    takes absolute offsets and loads only the bytes it lacks, keeping the
    held bytes it can, so a pass from start to end reads each byte once.
    A search loads up to 2 * WINDOW bytes at a time."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.size = fh.seek(0, io.SEEK_END)
        self.buf = bytearray()
        self.lo = self.hi = 0

    @classmethod
    def of(cls, data: "str | bytes | BinaryIO") -> "Window":
        """A Window over a binary file, or over bytes or a str (encoded) through io.BytesIO."""
        if isinstance(data, str):
            data = data.encode()
        return cls(io.BytesIO(data) if isinstance(data, (bytes, bytearray, memoryview)) else data)

    def hold(self, lo: int, hi: int) -> None:
        """Make buf hold the bytes lo..hi, clipped to the file: the held
        bytes from lo on move to its front, and the rest are read."""
        hi = min(hi, self.size)
        if self.lo <= lo and hi <= self.hi:
            return
        keep = self.hi - lo if self.lo <= lo < self.hi else 0
        if len(self.buf) < hi - lo:
            buf = bytearray(hi - lo)
            buf[:keep] = self.buf[lo - self.lo:self.hi - self.lo]
            self.buf = buf
        elif keep:
            self.buf[:keep] = self.buf[lo - self.lo:self.hi - self.lo]
        self.fh.seek(lo + keep)
        view = memoryview(self.buf)[:max(hi - lo, 0)]
        filled = keep
        while filled < len(view) and (got := self.fh.readinto(view[filled:])):
            filled += got
        self.lo, self.hi = lo, lo + filled

    def view(self, lo: int, hi: int) -> memoryview:
        """The bytes lo..hi, clipped to the file, as a view of buf, which
        the next load overwrites."""
        hi = max(lo, min(hi, self.size))
        self.hold(lo, hi)
        return memoryview(self.buf)[lo - self.lo:hi - self.lo]

    def read(self, lo: int, hi: int) -> bytes:
        return bytes(self.view(lo, hi))

    def startswith(self, prefix: bytes, lo: int, hi: int) -> bool:
        """Whether the bytes lo..hi start with prefix."""
        if lo > min(hi, self.size):
            return False
        self.hold(lo, lo + len(prefix))
        return self.buf.startswith(prefix, lo - self.lo, min(hi, self.hi) - self.lo)

    def find(self, sub: bytes, lo: int, hi: int | None = None) -> int:
        """bytes.find over the bytes lo..hi, at absolute offsets."""
        hi = self.size if hi is None else min(hi, self.size)
        while lo + len(sub) <= hi:
            if not (self.lo <= lo and lo + len(sub) <= self.hi):
                self.hold(lo, min(hi, lo + max(2 * WINDOW, len(sub))))
            found = self.buf.find(sub, lo - self.lo, min(hi, self.hi) - self.lo)
            if found >= 0 or self.hi >= hi:
                return found if found < 0 else found + self.lo
            lo = self.hi - len(sub) + 1
        return -1

    def rfind(self, sub: bytes, lo: int, hi: int) -> int:
        """bytes.rfind over the bytes lo..hi, at absolute offsets."""
        hi = min(hi, self.size)
        while hi - lo >= len(sub):
            at = max(lo, hi - max(2 * WINDOW, len(sub)))
            self.hold(at, hi)
            found = self.buf.rfind(sub, at - self.lo, hi - self.lo)
            if found >= 0 or at == lo:
                return found if found < 0 else found + self.lo
            hi = at + len(sub) - 1
        return -1

    def count(self, sub: bytes, lo: int, hi: int) -> int:
        """bytes.count over the bytes lo..hi, for a sub that cannot overlap itself."""
        hi, total = min(hi, self.size), 0
        while lo + len(sub) <= hi:
            self.hold(lo, min(hi, lo + max(2 * WINDOW, len(sub))))
            stop = min(hi, self.hi)
            total += self.buf.count(sub, lo - self.lo, stop - self.lo)
            lo = stop - len(sub) + 1  # an occurrence that starts before here ends by stop
        return total


def read_rows(src: Window, lo: int, end: int, seps: Sequence[bytes], cols: Sequence[np.ndarray],
              ids: np.ndarray | None = None, trim: int = 0) -> tuple[str, ...]:
    """Read the bytes lo..end of src, which must be format_rows(seps, ...)
    less its last trim bytes, into the given columns, whose length is the
    number of rows they must hold: int32 columns for the int fields, then,
    when ids is given, the tag ids. Returns the tag names, numbered in order of first appearance. Bytes
    format_rows would not write, and more or fewer rows than the columns
    hold, raise FormatError naming the offset of the first of them.

    The rows are read WINDOW bytes at a time, each window completed to a
    whole row, and no window's temporaries outlive it."""
    stops = bytes(set(b"".join(seps)))  # the bytes that end a field
    width = len(seps) - 1  # fields a row
    ints = width - (ids is not None)
    size = len(cols[0]) if cols else len(ids)
    tags = _Tags()
    at = 0
    while lo < end:
        src.hold(lo, min(end, lo + 2 * WINDOW))  # from lo, so that the row ending the window is held too
        hi = src.find(seps[-1] + seps[0], lo + WINDOW, end)
        hi = end if hi < 0 else hi + len(seps[-1])  # whole rows
        buf = np.frombuffer(src.view(lo, hi), dtype=np.uint8)  # offsets in it are from lo
        bounds = _fields(buf, stops)
        rows = -(-len(bounds) // width)
        if len(bounds) == rows * width:
            bounds = bounds.reshape(rows, width, 2)  # a view: [row, field] is (start, end)
        else:  # a short last row is completed with the window's first fields, which the check sees
            bounds = np.resize(bounds, (rows, width, 2))
        starts, ends = bounds[:, :, 0], bounds[:, :, 1]
        words, base = _words(buf)
        vals = _ints(buf, words, base, starts[:, :ints], ends[:, :ints], src.find(b"-", lo, hi) >= 0)
        got = None
        if ids is not None:
            got = tags.ids(buf, words, base, starts[:, -1], ends[:, -1])
            if len(tags.index) > np.iinfo(ids.dtype).max + 1:
                raise ValueError(f"at most {np.iinfo(ids.dtype).max + 1} distinct tags")
        text = format_rows(seps, list(vals.T), got, tags.table)
        expect(src, lo, hi, text if hi < end else text[:len(text) - trim])
        if at + rows > size:
            raise FormatError(lo + int(starts[size - at, 0]) - len(seps[0]), f"more than {size} rows")
        # filled in place, so no window's rows outlive it
        for out, col in zip(cols, vals.T):
            out[at:at + rows] = col
        if ids is not None:
            ids[at:at + rows] = got
        lo, at = hi, at + rows
    if at < size:
        raise FormatError(end, f"{at} rows, not {size}")
    return tuple(token.decode() for token in tags.index)


def _fields(buf: np.ndarray, stops: bytes) -> np.ndarray:
    """(start, end) offsets, one row each, of the runs of bytes in buf that
    are none of stops."""
    stop = np.zeros(len(buf) + 2, dtype=bool)
    stop[[0, -1]] = True  # either end stops a run too
    for byte in stops:  # one compare per byte value is faster than a 256-entry table lookup
        stop[1:-1] |= buf == byte
    return np.flatnonzero(stop[1:] != stop[:-1]).reshape(-1, 2)  # each run's start, then its end


def _words(buf: np.ndarray) -> tuple[np.ndarray, int]:
    """(words, base): words[o - base] is the little-endian 8-byte word at
    offsets o..o+7 of buf, for -16 <= o <= len(buf), with 0 read outside
    buf."""
    pad = np.zeros(len(buf) + 24, dtype=np.uint8)
    pad[16:16 + len(buf)] = buf
    return np.ndarray((len(pad) - 7,), dtype="<u8", buffer=pad, strides=(1,)), -16


_U64 = np.uint64
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=_U64)  # keeps the k first bytes
_HIGH = ~_LOW[::-1]  # keeps the k last bytes
_SWAR = [(_U64(mask), _U64((10 ** k << 8 * k) + 1), _U64(8 * k))
         for k, mask in ((1, 0x0F0F0F0F0F0F0F0F), (2, 0x00FF00FF00FF00FF), (4, 0x0000FFFF0000FFFF))]


def _ints(buf: np.ndarray, words: np.ndarray, base: int, starts: np.ndarray, ends: np.ndarray,
          signed: bool) -> np.ndarray:
    """The int32 that each field buf[start:end] spells as an optional "-" and
    decimal digits; signed False says that no field holds a "-". Other
    fields give values that do not format back to them. Eight digits are
    combined at a time, as one word (SWAR), in place. words and base are
    _words's for offsets that hold the fields."""
    digits = ends - starts
    if signed:
        neg = buf[starts] == ord("-")
        digits -= neg
    val = np.zeros(digits.shape, dtype=_U64)
    for j in range(-(-min(int(digits.max(initial=0)), 16) // 8)):  # int32 has 10 digits
        # the word's last digits, the bytes before them masked to 0, which reads as a digit 0
        w = words[ends - (8 * (j + 1) + base)]
        w &= _HIGH[np.clip(digits - 8 * j, 0, 8)]
        for mask, times, shift in _SWAR:  # adjacent groups of 1, 2, then 4 digits joined
            w &= mask
            w *= times
            w >>= shift
        if j:
            w *= _U64(10 ** (8 * j))
        val += w
    val = val.view(np.int64)
    if signed:
        np.negative(val, out=val, where=neg)
    return val.astype(np.int32)  # wraps outside int32, which the check sees


class _Tags:
    """The tag ids of the tokens of one read, window by window. index maps
    each token to its id, numbered in order of first appearance; table[id]
    is what format_rows writes for it: the token itself when it is a tag,
    otherwise b"", which the check never finds equal to it."""

    def __init__(self):
        self.index: dict[bytes, int] = {}
        self.table: list[bytes] = []
        self.known = self._known()

    def _known(self) -> tuple[np.ndarray, ...]:
        """The 0-padded word, length and id of each numbered token of at most
        8 bytes, and of a length 0 entry that no token matches, as columns
        sorted by word."""
        rows = sorted([(0, 0, 0), *((int.from_bytes(token, "little"), len(token), i)
                                     for token, i in self.index.items() if len(token) <= 8)])
        return tuple(np.array(col, dtype=t) for col, t in zip(zip(*rows), (_U64, np.intp, np.intp)))

    def ids(self, buf: np.ndarray, words: np.ndarray, base: int,
            starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The id of each token buf[start:end]. A token is looked up among
        the known ones by its first word, then its length: the two fix a
        token of at most 8 bytes. The misses go through _sorted: new tokens,
        longer ones, and a token that shares its word with a known one of
        another length, which only a NUL at the end of one of them allows."""
        lens = ends - starts
        first = words[starts - base]
        first &= _LOW[np.minimum(lens, 8)]
        known_words, known_lens, known_ids = self.known
        at = np.searchsorted(known_words, first)
        np.minimum(at, len(known_words) - 1, out=at)
        ids = known_ids[at]
        miss = (known_words[at] != first) | (known_lens[at] != lens)
        if miss.any():
            ids[miss] = self._sorted(buf, words, base, starts[miss], ends[miss])
        return ids

    def _sorted(self, buf: np.ndarray, words: np.ndarray, base: int,
                starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The id of each token buf[start:end], new tokens getting the next
        ids. A key holds a token's length and all its bytes, so a stable sort
        of the keys groups exactly the equal tokens."""
        width = 1 + -(-int((ends - starts).max(initial=0)) // 8)
        step = max(1, WINDOW // width)  # tokens at once, which bounds the keys
        ids = np.empty(len(starts), dtype=np.intp)
        numbered = len(self.index)
        for lo in range(0, len(starts), step):
            s, e = starts[lo:lo + step], ends[lo:lo + step]
            keys = _keys(words, base, s, e, width)
            order = np.lexsort(keys)  # stable: each run of equal keys starts at its first appearance
            by_key = keys[:, order]
            run = np.ones(len(order), dtype=bool)
            run[1:] = (by_key[:, 1:] != by_key[:, :-1]).any(axis=0)
            heads = order[run]
            head_ids = np.empty(len(heads), dtype=np.intp)
            for g in np.argsort(heads).tolist():  # in order of first appearance
                token = buf[s[heads[g]]:e[heads[g]]].tobytes()
                head_ids[g] = self.index.setdefault(token, len(self.index))
                if head_ids[g] == len(self.table):
                    self.table.append(token if TAG.fullmatch(token.decode("latin-1")) else b"")
            ids[lo + order] = head_ids[np.cumsum(run) - 1]
        if len(self.index) > numbered:
            self.known = self._known()
        return ids


def _keys(words: np.ndarray, base: int, starts: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The key of each token buf[start:end], as a column of width words: its
    length, then its bytes as 8-byte words, zero past its end. words and
    base are _words's for offsets that hold the tokens."""
    keys = np.empty((width, len(starts)), dtype=_U64)
    keys[0] = lens = ends - starts
    for j in range(width - 1):
        keys[1 + j] = words[np.minimum(starts + 8 * j, ends) - base] & _LOW[np.clip(lens - 8 * j, 0, 8)]
    return keys
