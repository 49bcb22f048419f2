import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from permlab.gen import default_params, gen_simple, sample_simple
from permlab.graphs import basic, concat_all
from permlab.matching import instance_to_stream, max_matching
from permlab.perms import lex_partition, random_simple
from permlab.streams import (
    AdvantageReport,
    AugmentingMatching,
    CountingAlgorithm,
    EdgeStream,
    FullMemory,
    GreedyMatching,
    StateBitsMismatch,
    StreamAlgorithm,
    StreamBudgetError,
    advantage_estimate,
    dump_stream,
    graph_to_stream,
    parse_stream,
    partitioned_replay,
    run_passes,
)
from test_columnar import instance_of
from test_gen import fake_simple_from_core


def test_counting_algorithm():
    s = EdgeStream(4, False, [(1, 2), (3, 4), (1, 3)])
    res = run_passes(CountingAlgorithm(), s, 2)
    assert res.output == 6
    assert res.snapshots == [(3).to_bytes(8, "big"), (6).to_bytes(8, "big")]
    assert res.max_state_bits == 64
    assert res.elements_seen == 6


def test_greedy_k22_hand_trace():
    k22 = EdgeStream(4, False, [(1, 3), (1, 4), (2, 3), (2, 4)])
    out = run_passes(GreedyMatching(), k22, 1).output
    assert out == [(1, 3), (2, 4)]


def test_greedy_takes_whole_perfect_matching():
    pm = EdgeStream(6, False, [(1, 4), (2, 5), (3, 6)])
    assert len(run_passes(GreedyMatching(), pm, 1).output) == 3


def test_greedy_output_is_maximal():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randrange(4, 12)
        edges = [
            tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(n * 2)
        ]
        s = EdgeStream(n, False, edges)
        out = run_passes(GreedyMatching(), s, 1).output
        used = {v for e in out for v in e}
        for u, v in edges:
            assert u in used or v in used  # no free-free edge remains


def test_greedy_at_least_half_of_optimum():
    rng = random.Random(1)
    for _ in range(100):
        side = rng.randrange(2, 8)
        adj = [
            sorted(rng.sample(range(side), rng.randrange(0, side + 1)))
            for _ in range(side)
        ]
        inst = instance_of(adj)
        opt = max_matching(inst).size
        stream = instance_to_stream(inst)
        greedy = len(run_passes(GreedyMatching(), stream, 1).output)
        assert 2 * greedy >= opt


def test_augmenting_improves_a_trap():
    trap = EdgeStream(6, False, [(2, 5), (1, 5), (2, 6)])
    assert len(run_passes(GreedyMatching(), trap, 1).output) == 1
    assert len(run_passes(AugmentingMatching(), trap, 2).output) == 2


def test_budget_violation_names_element():
    class Hog(CountingAlgorithm):
        s_bits = 8

        def serialize(self, st):
            return b"xx"

    s = EdgeStream(2, False, [(1, 2)])
    with pytest.raises(StreamBudgetError, match=r"element 0 of pass 1"):
        run_passes(Hog(), s, 1)


def test_replay_enforces_state_budget():
    class Small(GreedyMatching):
        s_bits = 8

    handoff = EdgeStream(4, False, [(1, 2), (3, 4)], tags=["player:1", "referee"])
    with pytest.raises(StreamBudgetError, match=r"^state is 64 bits at player:1's handoff in pass 1 "):
        partitioned_replay(handoff, Small())
    with pytest.raises(StreamBudgetError, match=r"element 0 of pass 1"):
        run_passes(Small(), handoff, 1)
    one_party = EdgeStream(4, False, [(1, 2), (3, 4)], tags=["referee", "referee"])
    with pytest.raises(StreamBudgetError, match=r"^state is 128 bits at the end of pass 1 of the replay, budget is 8$"):
        partitioned_replay(one_party, Small())

    class Roomy(GreedyMatching):
        s_bits = 8 * len(b"[[1, 2], [3, 4]]")

    fits = partitioned_replay(handoff, Roomy())
    assert fits == partitioned_replay(handoff, GreedyMatching())
    assert fits.bytes_per_party == {"player:1": 8, "referee": 16}


def test_augmenting_counts_half_map():
    # pass 2 sees 3 attack 1-2 through vertex 2; that attack is state
    res = run_passes(AugmentingMatching(), EdgeStream(3, False, [(1, 2), (3, 2)]), 2)
    assert res.max_state_bits > 8 * len(b"[[1, 2]]")
    assert res.max_state_bits == 8 * len(b"[[[1, 2]], [[2, 3]]]")


def test_snapshots_are_copies():
    trap = EdgeStream(6, False, [(2, 5), (1, 5), (2, 6)])
    two = run_passes(AugmentingMatching(), trap, 2).snapshots
    one = run_passes(AugmentingMatching(), trap, 1).snapshots
    assert two[0] != two[1]
    assert two[0] == one[0]
    assert two[0] == b"[[[2, 5]], []]"


vertex_id = st.integers(1, 5).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))
# few distinct vertices, so edges share endpoints and augmenting paths occur
edge_lists = st.lists(vertex_id, min_size=2, max_size=8, unique=True).flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda e: e[0] != e[1]),
        max_size=40,
    )
)
ACCOUNTED = (GreedyMatching, AugmentingMatching, FullMemory, CountingAlgorithm)


@settings(max_examples=200, deadline=None)
@given(edge_lists, st.sampled_from(ACCOUNTED), st.integers(1, 2))
def test_state_bits_equals_serialized_size(edges, cls, p):
    alg = cls()
    rand = random.Random(0)
    state = alg.init()
    for pass_index in range(1, p + 1):
        state = alg.start_pass(state, pass_index)
        for edge in edges:
            state = alg.update(state, edge, rand)
            assert alg.state_bits(state) == 8 * len(alg.serialize(state))
    if cls is FullMemory:
        assert alg.serialize(state) == json.dumps(edges * p).encode()


@st.composite
def bipartite_instances(draw):
    side = draw(st.integers(1, 7))
    # empty lists and unused right indices leave vertices isolated on both sides
    adj = draw(st.lists(st.lists(st.integers(0, side - 1), unique=True, max_size=side),
                        min_size=side, max_size=side))
    return instance_of(adj)


@settings(max_examples=200, deadline=None)
@given(bipartite_instances())
# the highest-numbered right vertex has no edge, so the stream's largest id
# does not reveal the side
@example(instance_of([[0], []]))
def test_full_memory_is_max_matching(inst):
    assert run_passes(FullMemory(), instance_to_stream(inst), 1).output == max_matching(inst).size


def test_state_bits_under_report_is_caught():
    class Liar(GreedyMatching):
        def state_bits(self, state):
            return 16   # claims the empty matching

    s = EdgeStream(2, False, [(1, 2)], tags=["player:1"])
    with pytest.raises(StateBitsMismatch, match=r"16 bits after element 0 of pass 1.* 64"):
        run_passes(Liar(), s, 1)
    with pytest.raises(StateBitsMismatch, match=r"16 bits after pass 1 of the replay.* 64"):
        partitioned_replay(s, Liar())


def test_state_bits_drift_is_caught_at_pass_end():
    class Drifter(GreedyMatching):
        # under-reports from element 4 on; of the checked elements 0, 1, 3
        # and 5, only the last one of the pass sees it
        def update(self, state, edge, rand):
            state["seen"] = state.get("seen", 0) + 1
            return super().update(state, edge, rand)

        def state_bits(self, state):
            return super().state_bits(state) - 8 * (state["seen"] >= 5)

    s = EdgeStream(12, False, [(2 * i + 1, 2 * i + 2) for i in range(6)])
    with pytest.raises(StateBitsMismatch, match=r"element 5 of pass 1"):
        run_passes(Drifter(), s, 1)


def test_wall_clock_cap():
    class Slow(CountingAlgorithm):
        def update(self, state, edge, rand):
            import time

            time.sleep(0.02)
            return state + 1

    s = EdgeStream(2, False, [(1, 2)] * 50)
    with pytest.raises(TimeoutError):
        run_passes(Slow(), s, 1, wall_clock_cap=0.05)


def test_determinism_fixed_tape():
    class Noisy(StreamAlgorithm):
        def init(self):
            return []

        def update(self, state, edge, rand):
            state.append(rand.randrange(100))
            return state

        def finalize(self, state, rand):
            return tuple(state)

    s = EdgeStream(4, False, [(1, 2), (3, 4)])
    a = run_passes(Noisy(), s, 2, tape_seed=9).output
    b = run_passes(Noisy(), s, 2, tape_seed=9).output
    c = run_passes(Noisy(), s, 2, tape_seed=10).output
    assert a == b
    assert a != c
    # the replay reads tape 0, the tape run_passes reads by default
    tagged = EdgeStream(4, False, [(1, 2), (3, 4)], tags=["player:1", "referee"])
    assert partitioned_replay(tagged, Noisy(), 2).output == run_passes(Noisy(), s, 2).output


@pytest.mark.parametrize("p", [0, -1])
def test_both_drivers_refuse_fewer_than_one_pass(p):
    s = EdgeStream(4, False, [(1, 2), (3, 4)], tags=["player:1", "referee"])
    with pytest.raises(ValueError, match="^p must be at least 1$"):
        run_passes(GreedyMatching(), s, p)
    with pytest.raises(ValueError, match="^p must be at least 1$"):
        partitioned_replay(s, GreedyMatching(), p=p)


def test_two_pass_snapshot_feeds_second_pass():
    s = EdgeStream(4, False, [(1, 2), (3, 4), (2, 3)])
    res = run_passes(CountingAlgorithm(), s, 2)
    first, second = (int.from_bytes(snap, "big") for snap in res.snapshots)
    assert second == 2 * first


def test_stream_format_roundtrip():
    g = basic((2, 3, 1))
    st = graph_to_stream(g)
    text = dump_stream(st)
    assert text.startswith("PHSTREAM v1\n6 3 1\n")
    back = parse_stream(text)
    assert back.n == st.n and back.edges == st.edges and back.tags == st.tags
    untagged = EdgeStream(3, False, [(1, 2), (2, 3)])
    again = parse_stream(dump_stream(untagged))
    assert again.tags is None and again.edges == untagged.edges


def test_stream_parse_rejects_bad_input():
    with pytest.raises(ValueError, match="header"):
        parse_stream("nope\n1 0 0\n")
    with pytest.raises(ValueError, match="expected 2 edges"):
        parse_stream("PHSTREAM v1\n3 2 0\n1 2\n")
    with pytest.raises(ValueError, match="mixed"):
        parse_stream("PHSTREAM v1\n3 2 0\n1 2 tag\n1 3\n")


@pytest.mark.parametrize("flag", ["7", "-1", "2"])
def test_stream_parse_rejects_directed_flag_other_than_0_or_1(flag):
    with pytest.raises(ValueError, match="directed flag"):
        parse_stream(f"PHSTREAM v1\n2 1 {flag}\n1 2\n")
    assert parse_stream("PHSTREAM v1\n2 1 1\n1 2\n").directed


def test_canonical_order_and_shuffle():
    params = default_params(8, 2, k=2, p=1)
    g = gen_simple(
        random_simple(lex_partition(8, 2), random.Random(0)),
        lex_partition(8, 2),
        params,
        random.Random(0),
    )
    st = graph_to_stream(g)
    # canonical: source layer indices never decrease along the stream
    offsets = [0]
    for size in g.layers[:-1]:
        offsets.append(offsets[-1] + size)

    def layer_idx(u):
        li = 0
        while li + 1 < len(offsets) and offsets[li + 1] < u:
            li += 1
        return li

    lis = [layer_idx(u) for u, _ in st.edges]
    assert lis == sorted(lis)
    s1 = graph_to_stream(g, shuffle_seed=3)
    s2 = graph_to_stream(g, shuffle_seed=3)
    assert s1.edges == s2.edges and s1.edges != st.edges
    assert sorted(s1.edges) == sorted(st.edges)


def test_replay_requires_tags():
    s = EdgeStream(4, False, [(1, 2)])
    with pytest.raises(ValueError, match="tags"):
        partitioned_replay(s, GreedyMatching())


def test_replay_handoff_counts():
    from permlab.blocks import multi_block
    from permlab.hph import sample_core
    from permlab.rs import trivial_rs

    grs = trivial_rs(4, 4)
    sigs, L, M = sample_core(4, 1, 2, 2, random.Random(3))
    g = concat_all(multi_block(grs, sigs, L, M, 2))
    stream = graph_to_stream(g)
    rep = partitioned_replay(stream, CountingAlgorithm(), p=1)
    assert rep.handoffs == 2  # one entry per player's encoded layer
    rep2 = partitioned_replay(stream, CountingAlgorithm(), p=3)
    assert rep2.handoffs == 6
    assert set(rep.bytes_per_party) == {"player:1", "player:2", "referee"}


def test_replay_single_player_stream():
    s = EdgeStream(4, False, [(1, 2), (3, 4)], tags=["player:1", "player:1"])
    rep = partitioned_replay(s, CountingAlgorithm(), p=1)
    assert rep.handoffs == 1
    assert set(rep.bytes_per_party) == {"player:1"}


def test_replay_fake_passes_hide_referee_input():
    params = default_params(8, 2, k=2, p=1)
    rng = random.Random(4)
    rho = random_simple(lex_partition(8, 2), rng)
    g, core = sample_simple(rho, lex_partition(8, 2), params, random.Random(5))
    fake = fake_simple_from_core(core["sigmas"], params)
    real_stream = graph_to_stream(g)
    fake_stream = graph_to_stream(fake)

    class Transcript(StreamAlgorithm):
        def init(self):
            return []

        def update(self, state, edge, rand):
            state.append(edge)
            return state

        def finalize(self, state, rand):
            return state

    rep = partitioned_replay(
        real_stream, Transcript(), p=2, fake_stream=fake_stream
    )
    seen = rep.output
    # first pass saw the fake edges, second pass the real ones
    assert seen[: len(fake_stream.edges)] == fake_stream.edges
    assert seen[len(fake_stream.edges):] == real_stream.edges


def test_advantage_null_and_full_memory():
    rng = random.Random(6)
    fixed = EdgeStream(4, False, [(1, 3), (2, 4)])

    def dist(r):
        return fixed

    rep = advantage_estimate(
        dist, dist, GreedyMatching, lambda out: 0, 60, 1, rng
    )
    assert isinstance(rep, AdvantageReport)
    assert abs(rep.accuracy - 0.5) < 3.5 * 0.5 / 60**0.5
    assert rep.ci_low <= rep.accuracy <= rep.ci_high
    with pytest.raises(ValueError):
        advantage_estimate(dist, dist, GreedyMatching, lambda out: 0, 10, 1, rng)


def test_advantage_perfect_separation():
    a = EdgeStream(2, False, [(1, 2)])
    b = EdgeStream(2, False, [(1, 2), (1, 2)])
    rep = advantage_estimate(
        lambda r: a,
        lambda r: b,
        CountingAlgorithm,
        lambda count: 0 if count == 1 else 1,
        40,
        1,
        random.Random(7),
    )
    assert rep.accuracy == 1.0
