"""Geometric vocabulary: points, segment and angle terms, facts, and the line table.

Points are names; terms and facts are tagged tuples.  A point is its name,
a str, so the name is the whole identity and Python caches its hash.  A
segment is ("s", a, b) and an angle ("a", vertex, arm1, arm2); a fact is a
kind tag followed by its sides or points, such as ("=s", left, right) or
("between", mid, a, b).  The tag keeps kinds apart (tuple equality ignores
the subclass), and hashing and equality are tuple's own.  Each class names
its fields as read-only properties and keeps its printed form.

Terms and facts are built only by the constructors below (segment, angle,
seg_eq ... non_collinear), never by calling a class.  The constructors
reject degenerate input and canonicalize (endpoints, arms and outer pairs
sorted by name, equality sides in tuple order), so every fact is canonical
as built: syntactically mirrored writings such as seg(A,B) and seg(B,A)
are the same value, and the kernel needs neither symmetry bookkeeping nor
a second canonicalization pass.  One renaming, rename, rebuilds a fact
over other points through the same constructors, given its constructor
and its points' places: rule schemas (compiled to positions once), lemmas
and canon_fact all instantiate through it.

The line table is the collinearity store: every strict-betweenness fact
adds a three-point line, and lines sharing two points are merged
transitively.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import AbstractSet, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

PointId = str  # a point is its name

_new = tuple.__new__


class DegenerateSegment(ValueError):
    """Raised when both endpoints of a segment coincide."""


class DegenerateAngle(ValueError):
    """Raised when an angle's vertex and arms are not pairwise distinct."""


class DegenerateBetween(ValueError):
    """Raised when a betweenness fact does not name three distinct points."""


class SegmentTerm(tuple):
    """("s", a, b): unordered pair of distinct endpoints, in name order."""

    __slots__ = ()
    a = property(itemgetter(1))
    b = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"seg({self[1]},{self[2]})"


class AngleTerm(tuple):
    """("a", vertex, arm1, arm2): a vertex plus an unordered pair of arm
    points, arms in name order, so ang(A,B,C) and ang(C,B,A) are one
    value.  Terms compare by (vertex, arm1, arm2)."""

    __slots__ = ()
    vertex = property(itemgetter(1))
    arm1 = property(itemgetter(2))
    arm2 = property(itemgetter(3))

    def __repr__(self) -> str:
        return f"ang({self[2]},{self[1]},{self[3]})"


def segment(p: PointId, q: PointId) -> SegmentTerm:
    """Canonical segment with endpoints p, q.  DegenerateSegment if p == q."""
    if p == q:
        raise DegenerateSegment(f"segment endpoints coincide: {p}")
    return _new(SegmentTerm, ("s", p, q) if p < q else ("s", q, p))


def angle(p: PointId, v: PointId, q: PointId) -> AngleTerm:
    """Canonical angle at vertex v with arms through p and q.

    All three points must be pairwise distinct; DegenerateAngle otherwise.
    """
    if p == v or v == q or p == q:
        raise DegenerateAngle(f"angle points not distinct: {p},{v},{q}")
    return _new(AngleTerm, ("a", v, p, q) if p < q else ("a", v, q, p))


class Fact(tuple):
    """Base class for the closed fact inventory."""

    __slots__ = ()


class _Sides(Fact):
    """(tag, left, right): a comparison of two terms."""

    __slots__ = ()
    left = property(itemgetter(1))
    right = property(itemgetter(2))
    _op = ""

    def __repr__(self) -> str:
        return f"{self[1]!r} {self._op} {self[2]!r}"


class SegEq(_Sides):
    """("=s", left, right), sides in tuple order."""

    __slots__ = ()
    _op = "=="


class AngEq(_Sides):
    """("=a", left, right), sides in tuple order."""

    __slots__ = ()
    _op = "=="


class SegLt(_Sides):
    """("<s", left, right): strict; sides are ordered, not interchangeable."""

    __slots__ = ()
    _op = "<"


class AngLt(_Sides):
    """("<a", left, right): strict; sides are ordered, not interchangeable."""

    __slots__ = ()
    _op = "<"


class Between(Fact):
    """("between", mid, a, b): mid lies strictly between the outer pair,
    which is unordered and stored in name order."""

    __slots__ = ()
    mid = property(itemgetter(1))
    a = property(itemgetter(2))
    b = property(itemgetter(3))

    def __repr__(self) -> str:
        return f"between({self[1]};{{{self[2]},{self[3]}}})"


class NonCollinear(Fact):
    """("noncollinear", a, b, c): unordered triple of points not on one
    line, stored sorted."""

    __slots__ = ()
    a = property(itemgetter(1))
    b = property(itemgetter(2))
    c = property(itemgetter(3))

    def names(self) -> Tuple[str, str, str]:
        return self[1:]

    def __repr__(self) -> str:
        return f"noncollinear({self[1]},{self[2]},{self[3]})"


class Absurd(Fact):
    __slots__ = ()

    def __repr__(self) -> str:
        return "absurd"


ABSURD = _new(Absurd, ("absurd",))


def seg_eq(s: SegmentTerm, t: SegmentTerm) -> SegEq:
    """Segment equality with sides in canonical order (smaller first)."""
    return _new(SegEq, ("=s", s, t) if s <= t else ("=s", t, s))


def ang_eq(s: AngleTerm, t: AngleTerm) -> AngEq:
    return _new(AngEq, ("=a", s, t) if s <= t else ("=a", t, s))


def seg_lt(s: SegmentTerm, t: SegmentTerm) -> SegLt:
    return _new(SegLt, ("<s", s, t))


def ang_lt(s: AngleTerm, t: AngleTerm) -> AngLt:
    return _new(AngLt, ("<a", s, t))


def between(mid: PointId, p: PointId, q: PointId) -> Between:
    """mid strictly between p and q; all three pairwise distinct."""
    if mid == p or mid == q or p == q:
        raise DegenerateBetween(f"betweenness points not distinct: {mid},{p},{q}")
    return _new(Between, ("between", mid, p, q) if p < q else ("between", mid, q, p))


def non_collinear(p: PointId, q: PointId, r: PointId) -> NonCollinear:
    if p == q or q == r or p == r:
        raise DegenerateAngle(f"noncollinear points not distinct: {p},{q},{r}")
    return _new(NonCollinear, ("noncollinear", *sorted((p, q, r))))


def rename(make: Optional[Callable[..., Fact]], at: Tuple, p) -> Fact:
    """The fact `make` builds over the points p[i], i in `at`: two segments
    or two angles from four or six, three points, or absurd from none.  The
    one renaming; raises the constructors' errors when points collapse."""
    n = len(at)
    if n == 4:
        a, b, c, d = at
        return make(segment(p[a], p[b]), segment(p[c], p[d]))
    if n == 6:
        a, v, b, c, w, d = at
        return make(angle(p[a], p[v], p[b]), angle(p[c], p[w], p[d]))
    if n == 3:
        a, b, c = at
        return make(p[a], p[b], p[c])
    return ABSURD


_WRITTEN = {
    "seg_eq": (seg_eq, (0, 1, 2, 3)), "seg_lt": (seg_lt, (0, 1, 2, 3)),
    "ang_eq": (ang_eq, (0, 1, 2, 3, 4, 5)), "ang_lt": (ang_lt, (0, 1, 2, 3, 4, 5)),
    "between": (between, (1, 0, 2)), "noncollinear": (non_collinear, (0, 1, 2)), "absurd": (None, ()),
}


def written_fact(kind: str, p: Tuple[PointId, ...]) -> Fact:
    """The fact a script writes as `kind` (seg_eq, seg_lt, ang_eq, ang_lt,
    between, noncollinear or absurd) over points `p` in source order;
    written "between X Y Z", Y is the middle point.  Raises the
    constructors' errors on degenerate points."""
    return rename(*_WRITTEN[kind], p)


_MAKE = {SegEq: seg_eq, SegLt: seg_lt, AngEq: ang_eq, AngLt: ang_lt, Between: between,
         NonCollinear: non_collinear}


def fact_program(fact: Fact) -> Tuple[Optional[Callable[..., Fact]], Tuple[PointId, ...]]:
    """The constructor of `fact` (None for absurd) and its points, for rename."""
    return _MAKE.get(type(fact)), fact_point_names(fact)


def subst_fact(fact: Fact, mapping: Mapping[PointId, PointId]) -> Fact:
    """The fact with every point p renamed to mapping[p], rebuilt through
    the canonicalizing constructors by rename; lemmas instantiate through
    it.  Raises the constructors' errors when points collapse."""
    return rename(*fact_program(fact), mapping)


def canon_fact(fact: Fact) -> Fact:
    """Rebuild a fact through the canonicalizing constructors (idempotent)."""
    return subst_fact(fact, {p: p for p in fact_point_names(fact)})


def fact_point_names(fact: Fact) -> Tuple[str, ...]:
    """Every point name the fact mentions, left to right (with repeats)."""
    if isinstance(fact, (SegEq, SegLt)):
        return fact[1][1:] + fact[2][1:]
    if isinstance(fact, (AngEq, AngLt)):
        (_, v, p, q), (_, w, r, s) = fact[1], fact[2]
        return (p, v, q, r, w, s)
    if isinstance(fact, (Between, NonCollinear, Absurd)):
        return fact[1:]
    raise TypeError(f"not a fact: {fact!r}")


class Trail(list):
    """Undo log for in-place updates: an entry (function, object, argument)
    such as (dict.pop, d, key) reverses one update when called.  Entries
    are undone newest first."""

    def rollback(self, mark: int) -> None:
        """Undo every update logged since len(self) was `mark`."""
        while len(self) > mark:
            undo, obj, arg = self.pop()
            undo(obj, arg)


class LineTable:
    """Collinearity store.  Each line is a set of at least three point
    names; no two stored lines share two or more points.

    Updates happen in place and are logged on `trail`, so a caller can roll
    the table back to an earlier mark.  An index from each point to the
    lines through it keeps every update and query local to the points
    involved, and a merge moves the smaller line into the larger (union by
    size, Tarjan 1975), so each point moves O(log n) times."""

    def __init__(self, trail: Optional[Trail] = None) -> None:
        self.trail = Trail() if trail is None else trail
        self._points: Dict[int, Set[str]] = {}  # line id -> its points
        self._through: Dict[str, Set[int]] = {}  # point -> ids of its lines
        self._ids = count()

    @property
    def lines(self) -> Tuple[FrozenSet[str], ...]:
        return tuple(sorted((frozenset(p) for p in self._points.values()), key=sorted))

    def record_between(self, fact: Between) -> "LineTable":
        """Fold the three collinear points of a betweenness fact into the
        table, merging any stored lines that come to share two points."""
        triple = fact[1:]
        line = self._line_meeting(set(triple), triple)
        if line is None:
            line = next(self._ids)
            self._points[line] = set()
            self.trail.append((dict.pop, self._points, line))
        # Only `line` can share two points with another stored line, and
        # any such line passes through a point that has just joined `line`.
        pending = self._absorb(line, triple)
        while pending:
            p = pending.pop()
            other = self._line_meeting(self._points[line], (p,), line)
            if other is None:
                continue
            pending.append(p)  # another line through p may meet the merged one
            if len(self._points[other]) > len(self._points[line]):
                line, other = other, line
            pending.extend(self._absorb(line, self._points[other]))
            for q in self._points[other]:
                self._through[q].discard(other)
                self.trail.append((set.add, self._through[q], other))
            self.trail.append((dict.update, self._points, {other: self._points.pop(other)}))
        return self

    def _line_meeting(
        self, names: AbstractSet[str], via: Iterable[str], skip: Optional[int] = None
    ) -> Optional[int]:
        """A stored line other than `skip`, through a point of `via`, that
        holds two or more of `names`.  (A set intersection takes time in
        the size of the smaller set.)"""
        for p in via:
            for line in self._through.get(p, ()):
                if line != skip and len(self._points[line] & names) >= 2:
                    return line
        return None

    def _absorb(self, line: int, names: Iterable[str]) -> List[str]:
        """Add `names` to a stored line; return those that were new to it."""
        trail = self.trail
        into = self._points[line]
        moved = []
        for p in names:
            if p not in into:
                into.add(p)
                trail.append((set.discard, into, p))
                through = self._through.setdefault(p, set())
                through.add(line)
                trail.append((set.discard, through, line))
                moved.append(p)
        return moved

    def common_line(self, names: Iterable[str]) -> Optional[AbstractSet[str]]:
        """The stored line containing every given name, if any.  The result
        is the table's own set: read it, do not keep or change it."""
        wanted = set(names)
        first = next(iter(wanted), None)
        for line in self._through.get(first, ()):
            points = self._points[line]
            if wanted <= points:
                return points
        return None

