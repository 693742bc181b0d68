"""Canonical term construction and the collinearity table."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import closure_lines
from ponscheck.terms import (
    ABSURD,
    DegenerateAngle,
    DegenerateBetween,
    DegenerateSegment,
    LineTable,
    PointId,
    Trail,
    ang_eq,
    ang_lt,
    angle,
    between,
    canon_fact,
    fact_point_names,
    non_collinear,
    seg_eq,
    seg_lt,
    segment,
)

A, B, C, D, E = (PointId(n) for n in "ABCDE")


def test_segment_endpoints_sorted():
    assert segment(B, A) == segment(A, B)
    assert segment(B, A).a == A


def test_segment_degenerate():
    with pytest.raises(DegenerateSegment):
        segment(A, A)


def test_angle_arms_sorted_vertex_fixed():
    assert angle(C, B, A) == angle(A, B, C)
    assert angle(C, B, A).vertex == B
    assert angle(C, B, A).arm1 == A


def test_angle_degenerate():
    with pytest.raises(DegenerateAngle):
        angle(A, A, B)
    with pytest.raises(DegenerateAngle):
        angle(A, B, A)


def test_eq_facts_absorb_side_order():
    assert seg_eq(segment(A, B), segment(C, D)) == seg_eq(segment(C, D), segment(A, B))
    f = ang_eq(angle(A, B, C), angle(A, C, B))
    g = ang_eq(angle(A, C, B), angle(A, B, C))
    assert f == g


def test_between_mid_first_outer_sorted():
    f = between(D, B, A)
    assert f.mid == D
    assert (f.a, f.b) == (A, B)
    assert between(D, A, B) == f


def test_between_degenerate():
    with pytest.raises(DegenerateBetween):
        between(A, A, B)
    with pytest.raises(DegenerateBetween):
        between(C, B, B)


def test_non_collinear_sorted():
    f = non_collinear(C, A, B)
    assert (f.a, f.b, f.c) == (A, B, C)
    assert non_collinear(B, C, A) == f


def test_canon_fact_idempotent():
    facts = [
        seg_eq(segment(A, B), segment(C, D)),
        ang_lt(angle(A, B, C), angle(A, C, B)),
        between(D, A, B),
        non_collinear(A, B, C),
        ABSURD,
    ]
    for f in facts:
        assert canon_fact(f) == f
        assert canon_fact(canon_fact(f)) == canon_fact(f)


def test_fact_kinds_over_the_same_sides_stay_distinct():
    s, t = segment(A, B), segment(C, D)
    x, y = angle(A, B, C), angle(A, C, B)
    pairs = [
        (seg_eq(s, t), seg_lt(s, t)),
        (ang_eq(x, y), ang_lt(x, y)),
        (seg_lt(s, t), seg_lt(t, s)),
        (s, angle(A, C, B)),
        (between(A, B, C), non_collinear(A, B, C)),
    ]
    for f, g in pairs:
        assert f != g and g != f, (f, g)
        assert len({f, g}) == 2, (f, g)
    values = [seg_eq(s, t), seg_lt(s, t), seg_lt(t, s), ang_eq(x, y), ang_lt(x, y), s, y]
    assert len(set(values)) == len(values)


def test_fact_reprs_and_fields():
    s, t = segment(B, A), segment(D, C)
    x, y = angle(C, B, A), angle(A, C, B)
    assert repr(s) == "seg(A,B)" and (s.a, s.b) == (A, B)
    assert repr(x) == "ang(A,B,C)" and (x.vertex, x.arm1, x.arm2) == (B, A, C)
    assert repr(seg_eq(t, s)) == "seg(A,B) == seg(C,D)"
    assert repr(seg_lt(t, s)) == "seg(C,D) < seg(A,B)"
    assert repr(ang_eq(y, x)) == "ang(A,B,C) == ang(A,C,B)"
    assert repr(ang_lt(y, x)) == "ang(A,C,B) < ang(A,B,C)"
    assert repr(between(D, B, A)) == "between(D;{A,B})"
    assert repr(non_collinear(C, A, B)) == "noncollinear(A,B,C)"
    assert repr(ABSURD) == "absurd"
    for make, side in ((seg_eq, s), (seg_lt, s), (ang_eq, x), (ang_lt, x)):
        f = make(side, side)
        assert (f.left, f.right) == (side, side)
    f = seg_lt(t, s)
    assert (f.left, f.right) == (t, s)
    f = between(D, B, A)
    assert (f.mid, f.a, f.b) == (D, A, B)
    f = non_collinear(C, A, B)
    assert (f.a, f.b, f.c) == (A, B, C)


def test_fact_point_names():
    assert fact_point_names(seg_lt(segment(A, B), segment(C, D))) == ("A", "B", "C", "D")
    assert fact_point_names(ABSURD) == ()


def test_line_table_merges_on_two_shared_points():
    t = LineTable()
    t = t.record_between(between(B, A, C))  # A B C on one line
    t = t.record_between(between(C, B, D))  # B C D: shares B, C -> merge
    assert t.common_line((A, B, D)) is not None
    assert len(t.lines) == 1


def test_line_table_keeps_disjoint_lines_apart():
    t = LineTable()
    t = t.record_between(between(B, A, C))
    t = t.record_between(between(E, D, PointId("F")))
    assert len(t.lines) == 2
    assert t.common_line((A, B, D)) is None


def test_common_line():
    t = LineTable().record_between(between(B, A, C))
    assert t.common_line({"A", "C"}) == frozenset({"A", "B", "C"})
    assert t.common_line({"A", "D"}) is None


_names = st.sampled_from(["A", "B", "C", "D", "E", "F"])


@st.composite
def _between_facts(draw):
    mid, a, b = draw(
        st.tuples(_names, _names, _names).filter(lambda t: len(set(t)) == 3)
    )
    return between(PointId(mid), PointId(a), PointId(b))


@given(st.lists(_between_facts(), min_size=1, max_size=8), st.randoms())
def test_line_table_order_independent(facts, rnd):
    t1 = LineTable()
    for f in facts:
        t1 = t1.record_between(f)
    shuffled = list(facts)
    rnd.shuffle(shuffled)
    t2 = LineTable()
    for f in shuffled:
        t2 = t2.record_between(f)
    assert set(t1.lines) == set(t2.lines)


@given(st.lists(_between_facts(), min_size=0, max_size=8), _between_facts())
def test_line_table_monotone(facts, extra):
    """Recording more facts never loses a provable collinearity."""
    t = LineTable()
    for f in facts:
        t = t.record_between(f)
    before = [
        (p, q, r)
        for p in "ABCDEF"
        for q in "ABCDEF"
        for r in "ABCDEF"
        if len({p, q, r}) == 3
        and t.common_line((PointId(p), PointId(q), PointId(r))) is not None
    ]
    t2 = t.record_between(extra)
    for p, q, r in before:
        assert t2.common_line((PointId(p), PointId(q), PointId(r))) is not None


# --- indexed line table against a brute-force closure ---------------------

_EIGHT = "ABCDEFGH"
_QUERIES = [q for k in (2, 3) for q in combinations(_EIGHT, k)]


def _record(table, triple):
    mid, a, b = (PointId(n) for n in triple)
    table.record_between(between(mid, a, b))


def _answers(table):
    """Every answer the table gives over the eight names."""
    lines = set(table.lines)
    collinear = {
        t for t in combinations(_EIGHT, 3)
        if table.common_line(tuple(map(PointId, t))) is not None
    }
    common = {}
    for q in _QUERIES:
        line = table.common_line(q)
        common[q] = None if line is None else frozenset(line)
    return lines, collinear, common


def _oracle_answers(triples):
    lines = closure_lines(triples)
    collinear = {t for t in combinations(_EIGHT, 3) if any(set(t) <= l for l in lines)}
    common = {q: next((l for l in lines if set(q) <= l), None) for q in _QUERIES}
    return lines, collinear, common


def _check_against_closure(triples, cut):
    """Record a prefix, mark the trail, record the rest, compare both
    states with the closure, then roll back to the mark."""
    trail = Trail()
    table = LineTable(trail)
    for t in triples[:cut]:
        _record(table, t)
    mark = len(trail)
    before = _answers(table)
    assert before == _oracle_answers(triples[:cut])
    for t in triples[cut:]:
        _record(table, t)
    assert _answers(table) == _oracle_answers(triples)
    trail.rollback(mark)
    assert _answers(table) == before


_triples8 = st.permutations(_EIGHT).map(lambda p: tuple(p[:3]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_triples8, min_size=1, max_size=14), st.integers(0, 14))
def test_line_table_matches_brute_force_closure(triples, cut):
    _check_against_closure(triples, min(cut, len(triples)))


def test_line_table_cascade_and_rollback():
    # ABC, ADE and CEF pairwise share one point.  BCD joins ABC (B, C);
    # the grown line then meets ADE (A, D), and after that CEF (C, E):
    # one record, three merges
    table = LineTable()
    for t in ("BAC", "DAE", "ECF"):
        _record(table, t)
    assert len(table.lines) == 3
    mark = len(table.trail)
    _record(table, "CBD")
    assert table.lines == (frozenset("ABCDEF"),)
    table.trail.rollback(mark)
    assert set(table.lines) == {frozenset("ABC"), frozenset("ADE"), frozenset("CEF")}


def test_line_table_seeded_sequences_cover_cascades():
    """Seeded random sequences over eight names: they include points on
    several lines and records that merge two or more stored lines."""
    rng = random.Random(1975)
    multi_line_points = cascades = 0
    for _ in range(400):
        triples = [tuple(rng.sample(_EIGHT, 3)) for _ in range(rng.randrange(1, 13))]
        _check_against_closure(triples, rng.randrange(len(triples) + 1))
        table = LineTable()
        for t in triples:
            n = len(table.lines)
            _record(table, t)
            cascades += len(table.lines) < n
        lines = table.lines
        multi_line_points += any(sum(p in l for l in lines) >= 2 for p in _EIGHT)
    assert multi_line_points >= 50
    assert cascades >= 50
