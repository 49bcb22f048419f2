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

import copy
import json
import math
import random
import time
from dataclasses import dataclass, field

from .graphs import LayeredGraph
from .matching import BipartiteInstance, max_matching

MAGIC = "PHSTREAM v1"


@dataclass
class EdgeStream:
    n: int
    directed: bool
    edges: list[tuple[int, int]]       # one-indexed vertex ids
    tags: list[str] | None = None      # provenance, parallel to edges
    shuffle_seed: int | None = None

    def __post_init__(self):
        if self.tags is not None and len(self.tags) != len(self.edges):
            raise ValueError("tags must parallel edges")
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) outside [1,{self.n}]")

    def __len__(self):
        return len(self.edges)


def graph_to_stream(g: LayeredGraph, shuffle_seed: int | None = None) -> EdgeStream:
    """Serialize a layered graph: vertices numbered globally layer by layer,
    canonical order layer-major then provenance-major. A seed applies a
    uniform shuffle on top (stream order is an experiment parameter)."""
    offsets = [0]
    for size in g.layers[:-1]:
        offsets.append(offsets[-1] + size)
    rows = [
        (li, tag, offsets[li - 1] + u, offsets[li] + v)
        for (li, u, v), tag in zip(g.edges, g.tags)
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    edges = [(u, v) for _, _, u, v in rows]
    tags = [tag for _, tag, _, _ in rows]
    if shuffle_seed is not None:
        order = list(range(len(edges)))
        random.Random(shuffle_seed).shuffle(order)
        edges = [edges[i] for i in order]
        tags = [tags[i] for i in order]
    return EdgeStream(sum(g.layers), True, edges, tags, shuffle_seed)


def dump_stream(stream: EdgeStream) -> str:
    lines = [MAGIC, f"{stream.n} {len(stream.edges)} {1 if stream.directed else 0}"]
    for i, (u, v) in enumerate(stream.edges):
        if stream.tags is not None:
            lines.append(f"{u} {v} {stream.tags[i]}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_stream(text: str) -> EdgeStream:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"missing header {MAGIC!r}")
    head = lines[1].split()
    if len(head) != 3:
        raise ValueError("second line must be '<n> <edges> <directed>'")
    n, count, directed = int(head[0]), int(head[1]), int(head[2])
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != count:
        raise ValueError(f"expected {count} edges, found {len(body)}")
    edges = []
    tags: list[str] = []
    tagged = None
    for ln in body:
        parts = ln.split()
        if len(parts) == 2:
            now = False
        elif len(parts) == 3:
            now = True
        else:
            raise ValueError(f"bad edge line {ln!r}")
        if tagged is None:
            tagged = now
        elif tagged != now:
            raise ValueError("mixed tagged and untagged edge lines")
        edges.append((int(parts[0]), int(parts[1])))
        if now:
            tags.append(parts[2])
    return EdgeStream(n, directed == 1, edges, tags if tagged else None)


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


def _check_state_bits(alg: StreamAlgorithm, state, bits: int, where: str) -> None:
    actual = 8 * len(alg.serialize(state))
    if bits != actual:
        raise StateBitsMismatch(
            f"state_bits reports {bits} bits after {where}, "
            f"serialize gives {actual}"
        )


@dataclass
class RunResult:
    output: object
    snapshots: list            # state after each pass
    max_state_bits: int
    elements_seen: int


def run_passes(
    alg: StreamAlgorithm,
    stream: EdgeStream,
    p: int,
    tape_seed: int = 0,
    wall_clock_cap: float | None = None,
) -> RunResult:
    """Replay the stream p times; snapshot (a deep copy of) the state at each
    pass boundary. Exceeding the state budget fails hard, naming the offending
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
            if idx == last or not (idx + 1) & idx:
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
        snapshots.append(copy.deepcopy(state))
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


def greedy_matching_baseline() -> StreamAlgorithm:
    return GreedyMatching()


def augmenting_baseline(p: int) -> StreamAlgorithm:
    return GreedyMatching() if p == 1 else AugmentingMatching()


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
        edges = state["edges"]
        side = max(max(u, v) for u, v in edges) // 2 if edges else 0
        adj = [[] for _ in range(side)]
        for u, v in edges:
            adj[u - 1].append(v - side - 1)
        inst = BipartiteInstance(n=side, half=0, adj=adj, canonical=[])
        return max_matching(inst, seed_canonical=False).size

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
    tape_seed: int = 0,
    fake_stream: EdgeStream | None = None,
) -> ReplayReport:
    """Replay the stream as a communication protocol: whenever provenance
    changes, the current party hands the state to the next, and the handoff
    is charged to the sender at state_bits // 8 bytes (checked against
    serialize at each pass end). With fake_stream set, passes
    1..p-1 replay it instead of the real stream (the real referee input is
    only consumed on the final pass)."""
    if stream.tags is None:
        raise ValueError("partitioned replay needs provenance tags")
    if fake_stream is not None and fake_stream.tags is None:
        raise ValueError("fake stream needs provenance tags")
    rand = random.Random(tape_seed)
    state = alg.init()
    bytes_per: dict[str, int] = {}
    handoffs = 0
    for pass_index in range(1, p + 1):
        src = stream if (fake_stream is None or pass_index == p) else fake_stream
        state = alg.start_pass(state, pass_index)
        party = None
        for edge, tag in zip(src.edges, src.tags):
            now = _party_of(tag)
            if now != party:
                if party is not None:
                    bytes_per[party] = bytes_per.get(party, 0) + alg.state_bits(state) // 8
                if now.startswith("player:"):
                    handoffs += 1
                party = now
            state = alg.update(state, edge, rand)
        if party is not None:
            bits = alg.state_bits(state)
            _check_state_bits(alg, state, bits, f"pass {pass_index} of the replay")
            bytes_per[party] = bytes_per.get(party, 0) + bits // 8
    return ReplayReport(bytes_per, handoffs, p, alg.finalize(state, rand))
