"""Geometric vocabulary: points, segment and angle terms, facts, and the line table.

Everything but the line table is an immutable value.  Segments and angles
are canonicalized on construction (endpoints and arms sorted by point name),
so syntactically mirrored writings such as seg(A,B) and seg(B,A) are the
same object and the kernel never needs dedicated symmetry bookkeeping.  The
line table is the collinearity store: every strict-betweenness fact adds a
three-point line, and lines sharing two points are merged transitively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

ORIGIN_HYPOTHESIS = "hypothesis"
ORIGIN_CONSTRUCTED = "constructed"
ORIGIN_LEMMA = "lemma-introduced"
_ORIGINS = frozenset({ORIGIN_HYPOTHESIS, ORIGIN_CONSTRUCTED, ORIGIN_LEMMA})


class DegenerateSegment(ValueError):
    """Raised when both endpoints of a segment coincide."""


class DegenerateAngle(ValueError):
    """Raised when an angle's vertex and arms are not pairwise distinct."""


class DegenerateBetween(ValueError):
    """Raised when a betweenness fact does not name three distinct points."""


@dataclass(frozen=True)
class PointId:
    """A named point.  Names are unique within one theorem's scope, so
    identity and ordering use the name alone; origin is bookkeeping."""

    name: str
    origin: str = field(default=ORIGIN_HYPOTHESIS, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("point name must be nonempty")
        if self.origin not in _ORIGINS:
            raise ValueError(f"unknown point origin: {self.origin!r}")

    def __repr__(self) -> str:
        return f"Point({self.name})"


@dataclass(frozen=True)
class SegmentTerm:
    """Unordered pair of distinct endpoints, stored in name order."""

    a: PointId
    b: PointId

    def __post_init__(self) -> None:
        if self.a.name >= self.b.name:
            raise ValueError("SegmentTerm endpoints must be name-ordered; use segment()")

    def key(self) -> Tuple[str, str]:
        return (self.a.name, self.b.name)

    def points(self) -> Tuple[PointId, PointId]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        return f"seg({self.a.name},{self.b.name})"


@dataclass(frozen=True)
class AngleTerm:
    """Vertex plus an unordered pair of arm points, arms stored in name order.

    Representing arms as an unordered pair makes ang(A,B,C) and ang(C,B,A)
    identical by construction.
    """

    vertex: PointId
    arm1: PointId
    arm2: PointId

    def __post_init__(self) -> None:
        if self.arm1.name >= self.arm2.name:
            raise ValueError("AngleTerm arms must be name-ordered; use angle()")

    def key(self) -> Tuple[str, str, str]:
        return (self.vertex.name, self.arm1.name, self.arm2.name)

    def points(self) -> Tuple[PointId, PointId, PointId]:
        return (self.arm1, self.vertex, self.arm2)

    def __repr__(self) -> str:
        return f"ang({self.arm1.name},{self.vertex.name},{self.arm2.name})"


def segment(p: PointId, q: PointId) -> SegmentTerm:
    """Canonical segment with endpoints p, q.  DegenerateSegment if p == q."""
    if p.name == q.name:
        raise DegenerateSegment(f"segment endpoints coincide: {p.name}")
    a, b = sorted((p, q), key=lambda x: x.name)
    return SegmentTerm(a, b)


def angle(p: PointId, v: PointId, q: PointId) -> AngleTerm:
    """Canonical angle at vertex v with arms through p and q.

    All three points must be pairwise distinct; DegenerateAngle otherwise.
    """
    names = {p.name, v.name, q.name}
    if len(names) != 3:
        raise DegenerateAngle(f"angle points not distinct: {p.name},{v.name},{q.name}")
    a1, a2 = sorted((p, q), key=lambda x: x.name)
    return AngleTerm(v, a1, a2)


class Fact:
    """Base class for the closed fact inventory."""

    __slots__ = ()


@dataclass(frozen=True, repr=False)
class SegEq(Fact):
    left: SegmentTerm
    right: SegmentTerm

    def __repr__(self) -> str:
        return f"{self.left!r} == {self.right!r}"


@dataclass(frozen=True, repr=False)
class AngEq(Fact):
    left: AngleTerm
    right: AngleTerm

    def __repr__(self) -> str:
        return f"{self.left!r} == {self.right!r}"


@dataclass(frozen=True, repr=False)
class SegLt(Fact):
    """Strict comparison; sides are ordered, not interchangeable."""

    left: SegmentTerm
    right: SegmentTerm

    def __repr__(self) -> str:
        return f"{self.left!r} < {self.right!r}"


@dataclass(frozen=True, repr=False)
class AngLt(Fact):
    left: AngleTerm
    right: AngleTerm

    def __repr__(self) -> str:
        return f"{self.left!r} < {self.right!r}"


@dataclass(frozen=True, repr=False)
class Between(Fact):
    """mid lies strictly between the outer pair (outer pair unordered)."""

    mid: PointId
    a: PointId
    b: PointId

    def __post_init__(self) -> None:
        if self.a.name >= self.b.name:
            raise ValueError("Between outer pair must be name-ordered; use between()")

    def __repr__(self) -> str:
        return f"between({self.mid.name};{{{self.a.name},{self.b.name}}})"


@dataclass(frozen=True, repr=False)
class NonCollinear(Fact):
    """Unordered triple of points not on one line, stored sorted."""

    a: PointId
    b: PointId
    c: PointId

    def __post_init__(self) -> None:
        if not (self.a.name < self.b.name < self.c.name):
            raise ValueError("NonCollinear triple must be name-ordered; use non_collinear()")

    def names(self) -> Tuple[str, str, str]:
        return (self.a.name, self.b.name, self.c.name)

    def __repr__(self) -> str:
        return f"noncollinear({self.a.name},{self.b.name},{self.c.name})"


@dataclass(frozen=True, repr=False)
class Absurd(Fact):
    def __repr__(self) -> str:
        return "absurd"


ABSURD = Absurd()


def seg_eq(s: SegmentTerm, t: SegmentTerm) -> SegEq:
    """Segment equality with sides in canonical order (smaller key first)."""
    if t.key() < s.key():
        s, t = t, s
    return SegEq(s, t)


def ang_eq(s: AngleTerm, t: AngleTerm) -> AngEq:
    if t.key() < s.key():
        s, t = t, s
    return AngEq(s, t)


def seg_lt(s: SegmentTerm, t: SegmentTerm) -> SegLt:
    return SegLt(s, t)


def ang_lt(s: AngleTerm, t: AngleTerm) -> AngLt:
    return AngLt(s, t)


def between(mid: PointId, p: PointId, q: PointId) -> Between:
    """mid strictly between p and q; all three pairwise distinct."""
    names = {mid.name, p.name, q.name}
    if len(names) != 3:
        raise DegenerateBetween(f"betweenness points not distinct: {mid.name},{p.name},{q.name}")
    a, b = sorted((p, q), key=lambda x: x.name)
    return Between(mid, a, b)


def non_collinear(p: PointId, q: PointId, r: PointId) -> NonCollinear:
    names = {p.name, q.name, r.name}
    if len(names) != 3:
        raise DegenerateAngle(f"noncollinear points not distinct: {p.name},{q.name},{r.name}")
    a, b, c = sorted((p, q, r), key=lambda x: x.name)
    return NonCollinear(a, b, c)


def canon_fact(fact: Fact) -> Fact:
    """Rebuild a fact through the canonicalizing constructors (idempotent).
    Terms canonicalize on construction, so an equality whose sides are
    already in order is returned as it is."""
    if isinstance(fact, SegEq):
        return fact if fact.left.key() <= fact.right.key() else seg_eq(fact.left, fact.right)
    if isinstance(fact, AngEq):
        return fact if fact.left.key() <= fact.right.key() else ang_eq(fact.left, fact.right)
    if isinstance(fact, SegLt):
        return seg_lt(fact.left, fact.right)
    if isinstance(fact, AngLt):
        return ang_lt(fact.left, fact.right)
    if isinstance(fact, Between):
        return between(fact.mid, fact.a, fact.b)
    if isinstance(fact, NonCollinear):
        return non_collinear(fact.a, fact.b, fact.c)
    if isinstance(fact, Absurd):
        return ABSURD
    raise TypeError(f"not a fact: {fact!r}")


def fact_point_names(fact: Fact) -> Tuple[str, ...]:
    """Every point name the fact mentions, left to right (with repeats)."""
    if isinstance(fact, (SegEq, SegLt)):
        return (fact.left.a.name, fact.left.b.name, fact.right.a.name, fact.right.b.name)
    if isinstance(fact, (AngEq, AngLt)):
        lt, rt = fact.left, fact.right
        return (
            lt.arm1.name, lt.vertex.name, lt.arm2.name,
            rt.arm1.name, rt.vertex.name, rt.arm2.name,
        )
    if isinstance(fact, Between):
        return (fact.mid.name, fact.a.name, fact.b.name)
    if isinstance(fact, NonCollinear):
        return fact.names()
    if isinstance(fact, Absurd):
        return ()
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
        triple = (fact.mid.name, fact.a.name, fact.b.name)
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

    def provably_collinear(self, p: PointId, q: PointId, r: PointId) -> bool:
        """True iff some stored line contains all three points."""
        return self.common_line((p.name, q.name, r.name)) is not None

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

