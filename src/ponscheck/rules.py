"""The closed deduction rule inventory.

Each rule is a schema over point variables: premise templates, NonCollinear
side-condition triples, and conclusion templates.  Instantiating a schema
with a binding from variables to point names yields concrete canonical
facts.  The inventory is fixed; the kernel refuses rule ids outside this
table.

Ordered-triple congruence: SAS_ORD and ASA_ORD act on two ordered triples
(P1,P2,P3), (Q1,Q2,Q3), so one triangle can be made congruent to itself
under a nontrivial correspondence, which is exactly what the one-step
base-angle proofs exploit.

Conventions baked into instantiations:
  * angles are written arm, vertex, arm (the middle point is the vertex);
  * SEG_SUM triples are (outer, mid, outer) for each of the two sums;
  * WHOLE_PART_ANG's compared arm is the first instantiation point;
  * LT_SUBST_* rewrite both sides via equalities, the unchanged side being
    dischargeable with the inline `refl` reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, NamedTuple, Sequence, Tuple

from .terms import (
    ABSURD,
    Fact,
    PointId,
    ang_eq,
    ang_lt,
    angle,
    between,
    non_collinear,
    seg_eq,
    seg_lt,
    segment,
)

Binding = Mapping[str, PointId]
Template = Callable[[Binding], Fact]


class RuleSchema(NamedTuple):
    rule_id: str
    variables: Tuple[str, ...]
    premises: Tuple[Template, ...]
    side_conditions: Tuple[Tuple[str, str, str], ...]
    conclusions: Tuple[Template, ...]
    collinear_side: Tuple[str, ...] = ()  # NC_TRANSFER: names that must share a line

    def bind(self, points: Sequence[PointId]) -> Dict[str, PointId]:
        if len(points) != len(self.variables):
            raise ValueError(
                f"{self.rule_id} expects {len(self.variables)} points, got {len(points)}"
            )
        return dict(zip(self.variables, points))

    def instantiate_premises(self, b: Binding) -> Tuple[Fact, ...]:
        return tuple(t(b) for t in self.premises)

    def instantiate_conclusions(self, b: Binding) -> Tuple[Fact, ...]:
        return tuple(t(b) for t in self.conclusions)

    def instantiate_side_conditions(self, b: Binding):
        return tuple((b[x], b[y], b[z]) for (x, y, z) in self.side_conditions)


def _seq(a: str, b: str, c: str, d: str) -> Template:
    return lambda m: seg_eq(segment(m[a], m[b]), segment(m[c], m[d]))


def _slt(a: str, b: str, c: str, d: str) -> Template:
    return lambda m: seg_lt(segment(m[a], m[b]), segment(m[c], m[d]))


def _aeq(a1: str, v1: str, b1: str, a2: str, v2: str, b2: str) -> Template:
    return lambda m: ang_eq(angle(m[a1], m[v1], m[b1]), angle(m[a2], m[v2], m[b2]))


def _alt(a1: str, v1: str, b1: str, a2: str, v2: str, b2: str) -> Template:
    return lambda m: ang_lt(angle(m[a1], m[v1], m[b1]), angle(m[a2], m[v2], m[b2]))


def _btw(mid: str, a: str, b: str) -> Template:
    return lambda m: between(m[mid], m[a], m[b])


def _nc(a: str, b: str, c: str) -> Template:
    return lambda m: non_collinear(m[a], m[b], m[c])


def _absurd() -> Template:
    return lambda m: ABSURD


RULES: Dict[str, RuleSchema] = {}


def _rule(schema: RuleSchema) -> None:
    RULES[schema.rule_id] = schema


_rule(RuleSchema(
    "SEG_REFL", ("a", "b"),
    premises=(),
    side_conditions=(),
    conclusions=(_seq("a", "b", "a", "b"),),
))

_rule(RuleSchema(
    "ANG_REFL", ("a", "v", "b"),
    premises=(),
    side_conditions=(),
    conclusions=(_aeq("a", "v", "b", "a", "v", "b"),),
))

_rule(RuleSchema(
    "SEG_SYM", ("a", "b", "c", "d"),
    premises=(_seq("a", "b", "c", "d"),),
    side_conditions=(),
    conclusions=(_seq("c", "d", "a", "b"),),
))

_rule(RuleSchema(
    "ANG_SYM", ("a", "v", "b", "c", "w", "d"),
    premises=(_aeq("a", "v", "b", "c", "w", "d"),),
    side_conditions=(),
    conclusions=(_aeq("c", "w", "d", "a", "v", "b"),),
))

_rule(RuleSchema(
    "SEG_TRANS", ("a", "b", "c", "d", "e", "f"),
    premises=(_seq("a", "b", "c", "d"), _seq("c", "d", "e", "f")),
    side_conditions=(),
    conclusions=(_seq("a", "b", "e", "f"),),
))

_rule(RuleSchema(
    "ANG_TRANS", ("a", "v", "b", "c", "w", "d", "e", "u", "f"),
    premises=(_aeq("a", "v", "b", "c", "w", "d"), _aeq("c", "w", "d", "e", "u", "f")),
    side_conditions=(),
    conclusions=(_aeq("a", "v", "b", "e", "u", "f"),),
))

_rule(RuleSchema(
    "SAS_ORD", ("p1", "p2", "p3", "q1", "q2", "q3"),
    premises=(
        _seq("p1", "p2", "q1", "q2"),
        _seq("p1", "p3", "q1", "q3"),
        _aeq("p2", "p1", "p3", "q2", "q1", "q3"),
    ),
    side_conditions=(("p1", "p2", "p3"), ("q1", "q2", "q3")),
    conclusions=(
        _seq("p2", "p3", "q2", "q3"),
        _aeq("p1", "p2", "p3", "q1", "q2", "q3"),
        _aeq("p1", "p3", "p2", "q1", "q3", "q2"),
    ),
))

_rule(RuleSchema(
    "ASA_ORD", ("p1", "p2", "p3", "q1", "q2", "q3"),
    premises=(
        _aeq("p1", "p2", "p3", "q1", "q2", "q3"),
        _aeq("p1", "p3", "p2", "q1", "q3", "q2"),
        _seq("p2", "p3", "q2", "q3"),
    ),
    side_conditions=(("p1", "p2", "p3"), ("q1", "q2", "q3")),
    conclusions=(
        _seq("p1", "p2", "q1", "q2"),
        _seq("p1", "p3", "q1", "q3"),
        _aeq("p2", "p1", "p3", "q2", "q1", "q3"),
    ),
))

_rule(RuleSchema(
    "SEG_SUM", ("a", "m", "b", "a2", "m2", "b2"),
    premises=(
        _btw("m", "a", "b"),
        _btw("m2", "a2", "b2"),
        _seq("a", "m", "a2", "m2"),
        _seq("m", "b", "m2", "b2"),
    ),
    side_conditions=(),
    conclusions=(_seq("a", "b", "a2", "b2"),),
))

_rule(RuleSchema(
    "SUPP_CONG", ("a", "b", "c", "d", "a2", "b2", "c2", "d2"),
    premises=(
        _btw("b", "a", "d"),
        _btw("b2", "a2", "d2"),
        _aeq("d", "b", "c", "d2", "b2", "c2"),
    ),
    side_conditions=(("a", "b", "c"), ("a2", "b2", "c2")),
    conclusions=(_aeq("a", "b", "c", "a2", "b2", "c2"),),
))

_rule(RuleSchema(
    "ARM_SUBST", ("v", "w", "m", "z"),
    premises=(_btw("m", "v", "w"),),
    side_conditions=(("v", "w", "z"),),
    conclusions=(_aeq("w", "v", "z", "m", "v", "z"),),
))

_rule(RuleSchema(
    "WHOLE_PART_SEG", ("a", "m", "b"),
    premises=(_btw("m", "a", "b"),),
    side_conditions=(),
    conclusions=(_slt("a", "m", "a", "b"),),
))

_rule(RuleSchema(
    "WHOLE_PART_ANG", ("a", "m", "b", "z"),
    premises=(_btw("m", "a", "b"),),
    side_conditions=(("a", "b", "z"),),
    conclusions=(_alt("a", "z", "m", "a", "z", "b"),),
))

_rule(RuleSchema(
    "LT_SUBST_SEG", ("a", "b", "c", "d", "e", "f", "g", "h"),
    premises=(
        _slt("a", "b", "c", "d"),
        _seq("a", "b", "e", "f"),
        _seq("c", "d", "g", "h"),
    ),
    side_conditions=(),
    conclusions=(_slt("e", "f", "g", "h"),),
))

_rule(RuleSchema(
    "LT_SUBST_ANG", ("a1", "v1", "b1", "a2", "v2", "b2", "a3", "v3", "b3", "a4", "v4", "b4"),
    premises=(
        _alt("a1", "v1", "b1", "a2", "v2", "b2"),
        _aeq("a1", "v1", "b1", "a3", "v3", "b3"),
        _aeq("a2", "v2", "b2", "a4", "v4", "b4"),
    ),
    side_conditions=(),
    conclusions=(_alt("a3", "v3", "b3", "a4", "v4", "b4"),),
))

_rule(RuleSchema(
    "ABSURD_LT_EQ_SEG", ("a", "b", "c", "d"),
    premises=(_slt("a", "b", "c", "d"), _seq("a", "b", "c", "d")),
    side_conditions=(),
    conclusions=(_absurd(),),
))

_rule(RuleSchema(
    "ABSURD_LT_EQ_ANG", ("a", "v", "b", "c", "w", "d"),
    premises=(_alt("a", "v", "b", "c", "w", "d"), _aeq("a", "v", "b", "c", "w", "d")),
    side_conditions=(),
    conclusions=(_absurd(),),
))

_rule(RuleSchema(
    "NC_TRANSFER", ("x", "y", "z", "p", "q"),
    premises=(_nc("x", "y", "z"),),
    side_conditions=(),
    conclusions=(_nc("p", "q", "z"),),
    collinear_side=("p", "q", "x", "y"),
))


RULE_IDS: Tuple[str, ...] = tuple(sorted(RULES))
