import pytest
from hypothesis import example, given, settings, strategies as st

from permlab.rs import RSGraph, dump_rs, parse_rs, trivial_rs, validate_rs


def ref_validate_rs(g: RSGraph) -> str | None:
    """The direct scan: every edge against every other matching's endpoint
    sets, O(t^2 * r)."""
    seen: dict[tuple[int, int], int] = {}
    for i, block in enumerate(g.matchings, start=1):
        lefts = set()
        rights = set()
        for j, (left, right) in enumerate(block, start=1):
            if not (1 <= left <= g.n_rs and 1 <= right <= g.n_rs):
                return (f"matching {i} edge {j}: endpoint ({left},{right}) "
                        f"outside [1,{g.n_rs}]")
            if left in lefts:
                return f"matching {i} edge {j}: left vertex {left} repeated"
            if right in rights:
                return f"matching {i} edge {j}: right vertex {right} repeated"
            lefts.add(left)
            rights.add(right)
            if (left, right) in seen:
                return (f"matching {i} edge {j}: edge ({left},{right}) already "
                        f"in matching {seen[(left, right)]}")
            seen[(left, right)] = i
    endpoint_sets = [
        ({left for left, _ in block}, {right for _, right in block})
        for block in g.matchings
    ]
    for i, block in enumerate(g.matchings, start=1):
        for j, (left, right) in enumerate(block, start=1):
            for other in range(1, g.t + 1):
                if other == i:
                    continue
                lefts, rights = endpoint_sets[other - 1]
                if left in lefts and right in rights:
                    return (f"matching {i} edge {j}: edge ({left},{right}) "
                            f"joins the endpoints of matching {other}, which "
                            f"is not induced")
    return None


@st.composite
def rs_families(draw):
    # small vertex sets so matchings overlap; most matchings are proper, so
    # the inducedness scan is reached, and some repeat or leave [1, n_rs]
    n_rs = draw(st.integers(1, 4))
    r = draw(st.integers(1, n_rs))
    t = draw(st.integers(1, 6))
    proper = draw(st.booleans())
    ends = st.lists(st.integers(1, n_rs + (0 if proper else 1)), min_size=r, max_size=r, unique=proper)
    matchings = tuple(tuple(zip(draw(ends), draw(ends))) for _ in range(t))
    return RSGraph(n_rs, r, t, matchings)


def test_trivial_4_2_enumerates_chunk_pairs():
    g = trivial_rs(4, 2)
    assert (g.n_rs, g.r, g.t) == (4, 2, 4)
    assert g.matchings == (
        ((1, 1), (2, 2)),
        ((1, 3), (2, 4)),
        ((3, 1), (4, 2)),
        ((3, 3), (4, 4)),
    )
    assert validate_rs(g) is None


def test_trivial_3_3_is_identity_perfect_matching():
    g = trivial_rs(3, 3)
    assert g.t == 1
    assert g.matchings == (((1, 1), (2, 2), (3, 3)),)
    assert validate_rs(g) is None


def test_alpha():
    assert trivial_rs(16, 4).alpha == pytest.approx(0.25)


def test_trivial_always_validates():
    for n, r in [(2, 1), (6, 2), (6, 3), (8, 4), (12, 3), (16, 4), (9, 3)]:
        g = trivial_rs(n, r)
        assert g.t == (n // r) ** 2
        assert validate_rs(g) is None
        for i, left, right in g.all_edges():
            assert 1 <= left <= n and 1 <= right <= n and 1 <= i <= g.t


def test_divisibility_required():
    with pytest.raises(ValueError):
        trivial_rs(5, 2)


def test_accessors_one_indexed():
    g = trivial_rs(4, 2)
    # matching for chunk pair (2,1) has index (2-1)*2+1 = 3
    assert (g.left(3, 1), g.right(3, 1)) == (3, 1)
    assert (g.left(2, 2), g.right(2, 2)) == (2, 4)


def test_cross_edge_violation_names_offender():
    # matching 2's edge (1,2) sits between matching 1's endpoints {1,2}x{1,2}
    bad = RSGraph(4, 2, 2, (((1, 1), (2, 2)), ((1, 2), (3, 3))))
    report = validate_rs(bad)
    assert report is not None
    assert "matching 2" in report


def test_repeated_endpoint_reported():
    bad = RSGraph(4, 2, 1, (((1, 1), (1, 2)),))
    report = validate_rs(bad)
    assert report is not None and "left vertex 1 repeated" in report


def test_duplicate_edge_reported():
    bad = RSGraph(4, 2, 2, (((1, 1), (2, 2)), ((1, 1), (3, 3))))
    assert "already in matching 1" in validate_rs(bad)


def test_out_of_range_reported():
    bad = RSGraph(4, 2, 1, (((1, 1), (2, 5)),))
    assert "outside" in validate_rs(bad)


def test_dump_parse_roundtrip():
    g = trivial_rs(6, 2)
    text = dump_rs(g)
    assert text.splitlines()[0] == "6 2 9"
    assert parse_rs(text) == g


@settings(max_examples=400, deadline=None)
@given(rs_families())
# edge (1,1) of matching 1 lies between the endpoints of matchings 2 and 3
@example(RSGraph(4, 2, 3, (((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 3), (3, 1)))))
def test_validate_matches_reference_scan(g):
    assert validate_rs(g) == ref_validate_rs(g)


def test_parse_rejects_invalid_family():
    bad = RSGraph(4, 2, 2, (((1, 1), (2, 2)), ((1, 2), (3, 3))))
    with pytest.raises(ValueError, match="invalid"):
        parse_rs(dump_rs(bad))


def test_parse_rejects_bad_shape():
    with pytest.raises(ValueError):
        parse_rs("4 2 2\n1 1\n2 2\n")
