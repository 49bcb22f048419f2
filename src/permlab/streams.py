"""Edge streams, space-bounded streaming algorithms, and replay harnesses.

A stream is an ordered edge list; order is part of its identity. Algorithms
follow an init/update/finalize contract with a read-only randomness tape
fixed before the stream starts and a state budget in bits that the harness
enforces after every update through the algorithm's state_bits. It
cross-checks state_bits against the serialized state after the 1st, 2nd,
4th, 8th, ... and last element of each pass. Between-element computation
is unbounded in the underlying model; run_passes accepts an
optional wall-clock cap that is strictly more restrictive and exists only
to keep desk experiments bounded.
"""

from __future__ import annotations

import json
import math
import random
import time
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .codec import FormatError, Window, expect, format_chunks, read_rows, tag_table, used_tags
from .graphs import LayeredGraph, in_blocks
from .matching import BipartiteInstance, max_matching
from .seeds import shuffled_range

MAGIC = "PHSTREAM v1"
_LINE = (b"", b" ", b"\n")
_TAGGED_LINE = (b"", b" ", b" ", b"\n")


class EdgeStream:
    """n vertices and an ordered edge list, held as columns: edge e runs from
    us[e] to vs[e] (int32 one-indexed vertex ids, so n must fit in int32) and,
    in a tagged stream, carries provenance tag_names[tag_ids[e]]."""

    def __init__(self, n: int, directed: bool, edges: Iterable[tuple[int, int]],
                 tags: Iterable[str] | None = None):
        rows = list(edges)
        if set(map(len, rows)) - {2}:
            raise ValueError("every edge must be a (u, v) pair")
        ids = np.frombuffer(array("q", chain.from_iterable(rows)), dtype=np.int64).reshape(-1, 2)
        tag_ids, names = None, ()
        if tags is not None:
            tags = list(tags)
            if len(tags) != len(rows):
                raise ValueError("tags must parallel edges")
            tag_ids, names = tag_table(tags)
        self._adopt(n, directed, ids[:, 0], ids[:, 1], tag_ids, names)

    @classmethod
    def from_columns(cls, n: int, directed: bool, us: np.ndarray, vs: np.ndarray,
                     tag_ids: np.ndarray | None = None,
                     tag_names: tuple[str, ...] = ()) -> "EdgeStream":
        """Adopt integer id columns, and tag ids into tag_names for a tagged
        stream, after the same bounds check as the list constructor."""
        stream = cls.__new__(cls)
        stream._adopt(n, directed, us, vs, tag_ids, tag_names)
        return stream

    def _adopt(self, n, directed, us, vs, tag_ids, tag_names) -> None:
        """Raise ValueError for a negative n, or naming the first edge, in
        edge order, with an endpoint outside [1, n]; otherwise keep the columns
        as int32, the given arrays themselves when they are int32."""
        if n < 0:
            raise ValueError(f"n={n} is negative")
        if len(us) and (min(us.min(), vs.min()) < 1 or max(us.max(), vs.max()) > n):
            # the per-edge mask only now, to name the first bad edge in edge order
            first = int(((us < 1) | (us > n) | (vs < 1) | (vs > n)).argmax())
            raise ValueError(f"edge ({us[first]},{vs[first]}) outside [1,{n}]")
        if n > np.iinfo(np.int32).max:
            raise ValueError(f"n={n} does not fit in int32 vertex ids")
        self.n, self.directed = n, directed
        self.us, self.vs = us.astype(np.int32, copy=False), vs.astype(np.int32, copy=False)
        self.tag_ids, self.tag_names = tag_ids, tuple(tag_names)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """The (u, v) pairs in stream order, built once from the columns."""
        return list(zip(self.us.tolist(), self.vs.tolist()))

    @cached_property
    def tags(self) -> list[str] | None:
        """One tag name per edge in stream order, or None for an untagged stream."""
        if self.tag_ids is None:
            return None
        return list(map(self.tag_names.__getitem__, self.tag_ids.tolist()))

    def __len__(self):
        return len(self.us)


def graph_to_stream(g: LayeredGraph, shuffle_seed: int | None = None) -> EdgeStream:
    """Serialize a layered graph: vertices numbered globally layer by layer,
    canonical order layer-major then provenance-major. A seed applies a
    uniform shuffle on top (stream order is an experiment parameter): the
    order random.Random(seed).shuffle leaves of the canonical one, computed
    by seeds.shuffled_range. The columns are gathered as graph_text gathers
    them, a block of the order at a time."""
    names = g.tag_names
    rank = np.empty(len(names), dtype=np.int64)  # position of each name in string order
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    # within a layer, global ids order as (u, v) do
    keys = (g.edges[:, 0], rank[g.tag_ids], g.edges[:, 1], g.edges[:, 2])
    # None stands for the identity, which the stable lexsort returns when the
    # rows are already in order, as gen writes them
    order = None if _in_order(keys) else np.lexsort(keys[::-1])
    del keys  # the rank column, before the shuffle's temporaries
    if shuffle_seed is not None:
        shuffled = shuffled_range(len(g.edges), shuffle_seed)
        order = shuffled if order is None else order[shuffled]
    us, vs = (np.empty(len(g.edges), dtype=np.int32) for _ in range(2))
    tag_ids = np.empty(len(g.edges), dtype=np.uint16)
    for (ub, vb, tb), (u, v, t) in zip(g.id_blocks(order), in_blocks(us, vs, tag_ids)):
        u[:], v[:], t[:] = ub, vb, tb
    return EdgeStream.from_columns(g.vertex_count, True, us, vs, tag_ids, names)


def graph_text(g: LayeredGraph, order: np.ndarray | None) -> Iterator[bytes]:
    """stream_text(graph_to_stream(g, seed)) for a graph whose rows are in
    the canonical order already, as gen writes them, given the order
    shuffled_range(len(g.edges), seed), or None for no seed. Each block of
    the order is gathered from the graph's columns and formatted when it is
    reached, so no stream column is held whole. The tags are checked first."""
    head, table = _head(g.vertex_count, len(g.edges), True, g.tag_names, g.tag_ids)
    return chain([head], _lines(g, order, table))


def _lines(g: LayeredGraph, order: np.ndarray | None, table: list[bytes]) -> Iterator[bytes]:
    """graph_text's edge lines, a block of the order at a time."""
    for ub, vb, tb in g.id_blocks(order):
        text = format_chunks(_TAGGED_LINE, [ub, vb], tb, table)
        del ub, vb, tb  # the formatter holds the block until it is written, and no longer
        yield from text


def _in_order(keys: tuple[np.ndarray, ...]) -> bool:
    """Whether the rows (keys[0][e], keys[1][e], ...) never decrease."""
    tied = np.ones(max(len(keys[0]) - 1, 0), dtype=bool)  # rows e, e+1 equal so far
    for key in keys:
        if (tied & (key[1:] < key[:-1])).any():
            return False
        tied &= key[1:] == key[:-1]
    return True


def dump_stream(stream: EdgeStream) -> str:
    """The stream as text. Raises ValueError for a used tag that is not a
    non-empty run of ASCII letters, digits and _:.-, which parse_stream
    reads back as one field."""
    return b"".join(stream_text(stream)).decode()


def stream_text(stream: EdgeStream) -> Iterator[bytes]:
    """dump_stream's text as bytes: the header, then the edge lines a
    codec.CHUNK at a time, each formatted when it is reached. The tags are
    checked first, as dump_stream checks them."""
    head, table = _head(stream.n, len(stream), stream.directed, stream.tag_names, stream.tag_ids)
    if table is None:
        return chain([head], format_chunks(_LINE, [stream.us, stream.vs]))
    return chain([head], format_chunks(_TAGGED_LINE, [stream.us, stream.vs], stream.tag_ids, table))


def _head(n: int, count: int, directed: bool, names: Sequence[str],
          ids: np.ndarray | None) -> tuple[bytes, list[bytes] | None]:
    """The header lines of a stream, and the tag table its lines are
    formatted with, None for untagged lines. The used tags are checked
    first, as dump_stream checks them."""
    head = f"{MAGIC}\n{n} {count} {1 if directed else 0}\n".encode()
    if ids is None:
        return head, None
    used_tags(names, ids)
    return head, [name.encode() for name in names]


def parse_stream(data: str | bytes | BinaryIO) -> EdgeStream:
    """Read dump_stream's text from a binary file, or from the text or its
    bytes, which are read as an io.BytesIO. The header's fields are read
    first; the edge lines are then read as columns by codec.read_rows,
    which checks them by formatting them again with dump_stream's
    formatter. The file is read through one codec.Window, which the header
    and count checks share, so the read holds the columns and a window,
    never the whole text. Anything dump_stream would not write raises
    ValueError, naming its byte offset."""
    src = Window.of(data)
    if not src.startswith(MAGIC.encode(), 0, src.size):
        raise ValueError(f"missing header {MAGIC!r}")
    lo = src.find(b"\n", 0) + 1
    hi = src.find(b"\n", lo) if lo else -1
    head = src.read(lo, hi if hi >= 0 else src.size).split() if lo else []
    if len(head) != 3:
        raise ValueError("second line must be '<n> <edges> <directed>'")
    n, count, directed = map(int, head)
    if directed not in (0, 1):
        raise ValueError(f"directed flag must be 0 or 1, got {directed}")
    header = f"{MAGIC}\n{n} {count} {directed}\n".encode()
    expect(src, 0, len(header), header)
    if not 0 <= count <= (src.size - len(header)) // 4:  # more lines than fit: "0 0\n" is the shortest
        _check_count(src, len(header), count)  # before columns that large are allocated
    eol = src.find(b"\n", len(header))
    tagged = len(src.read(len(header), eol if eol >= 0 else src.size).split()) == 3
    us, vs = np.empty(count, dtype=np.int32), np.empty(count, dtype=np.int32)
    tag_ids = np.empty(count, dtype=np.uint16) if tagged else None
    try:
        names = read_rows(src, len(header), src.size, _TAGGED_LINE if tagged else _LINE,
                          [us, vs], tag_ids)
    except ValueError as err:  # the lines are counted only now, and a wrong count is named first
        _check_count(src, len(header), count)
        if isinstance(err, FormatError):  # name a line of the other kind as such
            lo, hi = src.rfind(b"\n", 0, err.offset) + 1, src.find(b"\n", err.offset)
            if len(src.read(lo, hi if hi >= 0 else src.size).split()) == (2 if tagged else 3):
                raise ValueError("mixed tagged and untagged edge lines") from None
        raise
    return EdgeStream.from_columns(n, directed == 1, us, vs, tag_ids, names)


def _check_count(src: Window, body: int, count: int) -> None:
    """Raise ValueError unless the bytes from body on hold count lines, the
    last of them maybe with no newline."""
    lines = src.count(b"\n", body, src.size) + (src.size > body and src.read(src.size - 1, src.size) != b"\n")
    if lines != count:
        raise ValueError(f"expected {count} edges, found {lines}") from None


# ---------------------------------------------------------------------------
# algorithms

class StreamAlgorithm:
    """init() -> state; update(state, edge, rand) -> state;
    finalize(state, rand) -> output. serialize(state) defines the state's
    size; state_bits(state) must equal 8 * len(serialize(state)) and is what
    the harness reads after every update, so an algorithm whose serialize is
    not O(1) should override it with a running count. s_bits None means
    unbounded."""

    s_bits: int | None = None

    def init(self):
        raise NotImplementedError

    def update(self, state, edge, rand):
        raise NotImplementedError

    def finalize(self, state, rand):
        raise NotImplementedError

    def start_pass(self, state, pass_index: int):
        """Hook at each pass boundary; default is a no-op."""
        return state

    def serialize(self, state) -> bytes:
        return json.dumps(state, sort_keys=True, default=sorted).encode()

    def state_bits(self, state) -> int:
        return 8 * len(self.serialize(state))


class StreamBudgetError(RuntimeError):
    pass


class StateBitsMismatch(StreamBudgetError):
    """state_bits disagreed with the serialized state it stands for."""


def _check_state_bits(alg: StreamAlgorithm, state, bits: int, where: str) -> bytes:
    """Serialize the state, check that it is bits / 8 bytes long, and return it."""
    data = alg.serialize(state)
    if bits != 8 * len(data):
        raise StateBitsMismatch(
            f"state_bits reports {bits} bits after {where}, "
            f"serialize gives {8 * len(data)}"
        )
    return data


@dataclass
class RunResult:
    output: object
    snapshots: list[bytes]     # serialized state after each pass
    max_state_bits: int
    elements_seen: int


def run_passes(
    alg: StreamAlgorithm,
    stream: EdgeStream,
    p: int,
    tape_seed: int = 0,
    wall_clock_cap: float | None = None,
) -> RunResult:
    """Replay the stream p times; snapshot the serialized state at each pass
    boundary. Exceeding the state budget fails hard, naming the offending
    element; so does a state_bits that disagrees with serialize at a checked
    element (each pass's last, and those where idx + 1 is a power of two)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    rand = random.Random(tape_seed)  # the read-only tape, fixed up front
    state = alg.init()
    snapshots = []
    max_bits = 0
    last = len(stream.edges) - 1
    start = time.monotonic()
    for pass_index in range(1, p + 1):
        state = alg.start_pass(state, pass_index)
        for idx, edge in enumerate(stream.edges):
            state = alg.update(state, edge, rand)
            bits = alg.state_bits(state)
            if not (idx + 1) & idx:
                _check_state_bits(alg, state, bits, f"element {idx} of pass {pass_index}")
            max_bits = max(max_bits, bits)
            if alg.s_bits is not None and bits > alg.s_bits:
                raise StreamBudgetError(
                    f"state is {bits} bits after element {idx} of pass "
                    f"{pass_index}, budget is {alg.s_bits}"
                )
            if wall_clock_cap is not None and time.monotonic() - start > wall_clock_cap:
                raise TimeoutError(
                    f"wall clock cap {wall_clock_cap}s hit at element {idx} "
                    f"of pass {pass_index}"
                )
        where = f"element {last} of pass {pass_index}"
        snapshots.append(_check_state_bits(alg, state, alg.state_bits(state), where))
    output = alg.finalize(state, rand)
    return RunResult(output, snapshots, max_bits, p * len(stream.edges))


class CountingAlgorithm(StreamAlgorithm):
    """Counts stream elements in a fixed 64-bit state."""

    s_bits = 64

    def init(self):
        return 0

    def update(self, state, edge, rand):
        return state + 1

    def finalize(self, state, rand):
        return state

    def serialize(self, state) -> bytes:
        return int(state).to_bytes(8, "big")


def _pair_chars(u, v) -> int:
    """Characters the pair adds to a JSON list of int pairs: "[u, v]" plus
    its ", " separator. A list whose pairs sum to c has length max(2, c)
    whatever their order, so sorting before dumping does not change it."""
    return len(str(u)) + len(str(v)) + 6


class GreedyMatching(StreamAlgorithm):
    """Maximal matching: take every edge whose endpoints are both free."""

    def init(self):
        return {"matched": {}, "pairs": [], "pairs_chars": 0}

    def update(self, state, edge, rand):
        u, v = edge
        if u not in state["matched"] and v not in state["matched"]:
            state["matched"][u] = v
            state["matched"][v] = u
            state["pairs"].append((u, v))
            state["pairs_chars"] += _pair_chars(u, v)
        return state

    def finalize(self, state, rand):
        return sorted(state["pairs"])

    def serialize(self, state) -> bytes:
        return json.dumps(sorted(state["pairs"])).encode()

    def state_bits(self, state) -> int:
        return 8 * max(2, state["pairs_chars"])


class AugmentingMatching(GreedyMatching):
    """Greedy first pass, then one sweep per extra pass growing length-3
    augmenting paths found in stream order. The state counts the matching
    and the half map of attacks the current pass has seen."""

    def start_pass(self, state, pass_index: int):
        state["pass"] = pass_index
        state["half"] = {}   # matched vertex -> free vertex attacking it
        state["half_chars"] = 0
        return state

    def update(self, state, edge, rand):
        if state.get("pass", 1) == 1:
            return super().update(state, edge, rand)
        u, v = edge
        matched = state["matched"]
        if u not in matched and v not in matched:
            return super().update(state, edge, rand)
        for a, bnode in ((u, v), (v, u)):
            if a in matched or bnode not in matched:
                continue
            partner = matched[bnode]
            other = state["half"].get(partner)
            if other is not None and other not in matched and other != a:
                # augment: a - bnode | partner - other replaces bnode-partner
                state["pairs"].remove(
                    (bnode, partner) if (bnode, partner) in state["pairs"] else (partner, bnode)
                )
                state["pairs"].extend([(a, bnode), (partner, other)])
                state["pairs_chars"] += (
                    _pair_chars(a, bnode) + _pair_chars(partner, other)
                    - _pair_chars(bnode, partner)
                )
                for x, y in ((a, bnode), (partner, other)):
                    matched[x] = y
                    matched[y] = x
                self._pop_half(state, partner)
                self._pop_half(state, bnode)
            else:
                self._pop_half(state, bnode)
                state["half"][bnode] = a
                state["half_chars"] += _pair_chars(bnode, a)
        return state

    @staticmethod
    def _pop_half(state, key) -> None:
        old = state["half"].pop(key, None)
        if old is not None:
            state["half_chars"] -= _pair_chars(key, old)

    def serialize(self, state) -> bytes:
        return json.dumps([sorted(state["pairs"]), sorted(state["half"].items())]).encode()

    def state_bits(self, state) -> int:
        # "[" + pairs + ", " + half + "]"
        return 8 * (4 + max(2, state["pairs_chars"]) + max(2, state["half_chars"]))


class FullMemory(StreamAlgorithm):
    """Unbounded baseline: stores every edge of an instance_to_stream stream
    and outputs the exact maximum matching size."""

    def init(self):
        return {"edges": [], "edges_chars": 0}

    def update(self, state, edge, rand):
        state["edges"].append(edge)
        state["edges_chars"] += _pair_chars(*edge)
        return state

    def finalize(self, state, rand):
        # number the endpoints in value order: the matching size depends on
        # neither the numbering nor the isolated vertices it adds to each side
        ids, ends = np.unique(np.array(state["edges"], dtype=np.int64), return_inverse=True)
        ends = ends.reshape(-1, 2)
        inst = BipartiteInstance.from_edges(len(ids), 0, ends[:, 0], ends[:, 1], [])
        return max_matching(inst).size

    def serialize(self, state) -> bytes:
        return json.dumps(state["edges"]).encode()

    def state_bits(self, state) -> int:
        return 8 * max(2, state["edges_chars"])


# ---------------------------------------------------------------------------
# distinguishing advantage

@dataclass
class AdvantageReport:
    accuracy: float
    ci_low: float
    ci_high: float
    trials: int


def advantage_estimate(
    dist1,
    dist2,
    alg_factory,
    distinguisher,
    trials: int,
    p: int,
    rng: random.Random,
) -> AdvantageReport:
    """dist1/dist2 sample streams from rng; the distinguisher maps a final
    state to 0 (first) or 1 (second). Accuracy with a 95% binomial interval."""
    if trials < 30:
        raise ValueError("need at least 30 trials")
    hits = 0
    for _ in range(trials):
        which = rng.randrange(2)
        stream = (dist1 if which == 0 else dist2)(rng)
        res = run_passes(alg_factory(), stream, p, tape_seed=rng.randrange(2**32))
        if distinguisher(res.output) == which:
            hits += 1
    acc = hits / trials
    half = 1.96 * math.sqrt(max(acc * (1 - acc), 1e-12) / trials)
    return AdvantageReport(acc, max(0.0, acc - half), min(1.0, acc + half), trials)


# ---------------------------------------------------------------------------
# communication-pattern replay

def _party_of(tag: str) -> str:
    return tag if tag.startswith("player:") else "referee"


@dataclass
class ReplayReport:
    bytes_per_party: dict[str, int]
    handoffs: int              # entries into player segments, all passes
    passes: int
    output: object


def partitioned_replay(
    stream: EdgeStream,
    alg: StreamAlgorithm,
    p: int = 1,
    fake_stream: EdgeStream | None = None,
) -> ReplayReport:
    """Replay the stream as a communication protocol: whenever provenance
    changes, the current party hands the state to the next, and the handoff
    is charged to the sender at state_bits // 8 bytes (checked against
    serialize at each pass end). A charge over the algorithm's s_bits raises
    StreamBudgetError. With fake_stream set, passes
    1..p-1 replay it instead of the real stream (the real referee input is
    only consumed on the final pass). The tape is random.Random(0), the one
    run_passes reads by default."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if stream.tags is None:
        raise ValueError("partitioned replay needs provenance tags")
    if fake_stream is not None and fake_stream.tags is None:
        raise ValueError("fake stream needs provenance tags")
    rand = random.Random(0)
    state = alg.init()
    bytes_per: dict[str, int] = {}
    handoffs = 0
    budget = math.inf if alg.s_bits is None else alg.s_bits
    for pass_index in range(1, p + 1):
        src = stream if (fake_stream is None or pass_index == p) else fake_stream
        state = alg.start_pass(state, pass_index)
        party = None
        for edge, tag in zip(src.edges, src.tags):
            now = _party_of(tag)
            if now != party:
                if party is not None:
                    bits = alg.state_bits(state)
                    if bits > budget:
                        raise StreamBudgetError(f"state is {bits} bits at {party}'s handoff in "
                                                f"pass {pass_index} of the replay, budget is {budget}")
                    bytes_per[party] = bytes_per.get(party, 0) + bits // 8
                if now.startswith("player:"):
                    handoffs += 1
                party = now
            state = alg.update(state, edge, rand)
        if party is not None:
            bits = alg.state_bits(state)
            if bits > budget:
                raise StreamBudgetError(f"state is {bits} bits at the end of pass {pass_index} "
                                        f"of the replay, budget is {budget}")
            _check_state_bits(alg, state, bits, f"pass {pass_index} of the replay")
            bytes_per[party] = bytes_per.get(party, 0) + bits // 8
    return ReplayReport(bytes_per, handoffs, p, alg.finalize(state, rand))
