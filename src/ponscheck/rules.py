"""The closed deduction rule inventory.

Each rule is a schema over point variables: premises, NonCollinear
side-condition triples and conclusions.  Premises and conclusions are
ordinary canonical facts over the variable names, built once here by _f
from the kind and points a script would write, so a schema prints as the
facts it states (between a m b has m in the middle, as in a script).
_rule compiles each schema once, each fact to its constructor and the
positions in `variables` of its points (terms.fact_program), each side
condition to positions; a step instantiates it at its points, in the order
of `variables`, through terms.rename, the renaming lemmas use too.  The
inventory is fixed; the kernel refuses rule ids outside this table, and
_rule refuses an identity, a schema that only restates its premises
(equalities are canonical, so none is needed).

Ordered-triple congruence: SAS_ORD and ASA_ORD act on two ordered triples
(P1,P2,P3), (Q1,Q2,Q3), so one triangle can be made congruent to itself
under a nontrivial correspondence, which is exactly what the one-step
base-angle proofs exploit.

Conventions of the instantiation points:
  * angles are written arm, vertex, arm (the middle point is the vertex);
  * SEG_SUM triples are (outer, mid, outer) for each of the two sums;
  * WHOLE_PART_ANG's compared arm is the first instantiation point;
  * LT_SUBST_* rewrite both sides via equalities, the unchanged side being
    dischargeable with the inline `refl` reference.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple

from .terms import ABSURD, Fact, PointId, fact_program, rename, written_fact


class RuleSchema(NamedTuple):
    rule_id: str
    variables: Tuple[str, ...]
    premises: Tuple[Fact, ...]
    side_conditions: Tuple[Tuple[str, str, str], ...]
    conclusions: Tuple[Fact, ...]
    collinear_side: Tuple[str, ...] = ()  # NC_TRANSFER: names that must share a line
    # Set by _rule (register a changed copy through _rule again): the fields
    # above by position in `variables`, each fact as (constructor, positions).
    premises_at: tuple = ()
    conclusions_at: tuple = ()
    side_conditions_at: tuple = ()
    collinear_side_at: Tuple[int, ...] = ()

    def instantiate_premises(self, points: Sequence[PointId]) -> Tuple[Fact, ...]:
        return tuple([rename(make, at, points) for make, at in self.premises_at])

    def instantiate_conclusions(self, points: Sequence[PointId]) -> Tuple[Fact, ...]:
        return tuple([rename(make, at, points) for make, at in self.conclusions_at])

    def instantiate_side_conditions(self, points: Sequence[PointId]):
        return tuple([(points[x], points[y], points[z]) for x, y, z in self.side_conditions_at])


def _f(kind: str, *variables: str) -> Fact:
    """The schema fact a script writes as `kind` over these variables."""
    return written_fact(kind, variables)


RULES: Dict[str, RuleSchema] = {}


def _rule(schema: RuleSchema) -> None:
    if set(schema.conclusions) <= set(schema.premises):
        raise ValueError(f"{schema.rule_id} concludes only its own premises")
    at = schema.variables.index
    facts = lambda fs: tuple((make, tuple(map(at, names))) for make, names in map(fact_program, fs))
    RULES[schema.rule_id] = schema._replace(
        premises_at=facts(schema.premises),
        conclusions_at=facts(schema.conclusions),
        side_conditions_at=tuple(tuple(map(at, t)) for t in schema.side_conditions),
        collinear_side_at=tuple(map(at, schema.collinear_side)),
    )


_rule(RuleSchema(
    "SEG_REFL", ("a", "b"),
    premises=(),
    side_conditions=(),
    conclusions=(_f("seg_eq", "a", "b", "a", "b"),),
))

_rule(RuleSchema(
    "ANG_REFL", ("a", "v", "b"),
    premises=(),
    side_conditions=(),
    conclusions=(_f("ang_eq", "a", "v", "b", "a", "v", "b"),),
))

_rule(RuleSchema(
    "SEG_TRANS", ("a", "b", "c", "d", "e", "f"),
    premises=(_f("seg_eq", "a", "b", "c", "d"), _f("seg_eq", "c", "d", "e", "f")),
    side_conditions=(),
    conclusions=(_f("seg_eq", "a", "b", "e", "f"),),
))

_rule(RuleSchema(
    "ANG_TRANS", ("a", "v", "b", "c", "w", "d", "e", "u", "f"),
    premises=(
        _f("ang_eq", "a", "v", "b", "c", "w", "d"),
        _f("ang_eq", "c", "w", "d", "e", "u", "f"),
    ),
    side_conditions=(),
    conclusions=(_f("ang_eq", "a", "v", "b", "e", "u", "f"),),
))

_rule(RuleSchema(
    "SAS_ORD", ("p1", "p2", "p3", "q1", "q2", "q3"),
    premises=(
        _f("seg_eq", "p1", "p2", "q1", "q2"),
        _f("seg_eq", "p1", "p3", "q1", "q3"),
        _f("ang_eq", "p2", "p1", "p3", "q2", "q1", "q3"),
    ),
    side_conditions=(("p1", "p2", "p3"), ("q1", "q2", "q3")),
    conclusions=(
        _f("seg_eq", "p2", "p3", "q2", "q3"),
        _f("ang_eq", "p1", "p2", "p3", "q1", "q2", "q3"),
        _f("ang_eq", "p1", "p3", "p2", "q1", "q3", "q2"),
    ),
))

_rule(RuleSchema(
    "ASA_ORD", ("p1", "p2", "p3", "q1", "q2", "q3"),
    premises=(
        _f("ang_eq", "p1", "p2", "p3", "q1", "q2", "q3"),
        _f("ang_eq", "p1", "p3", "p2", "q1", "q3", "q2"),
        _f("seg_eq", "p2", "p3", "q2", "q3"),
    ),
    side_conditions=(("p1", "p2", "p3"), ("q1", "q2", "q3")),
    conclusions=(
        _f("seg_eq", "p1", "p2", "q1", "q2"),
        _f("seg_eq", "p1", "p3", "q1", "q3"),
        _f("ang_eq", "p2", "p1", "p3", "q2", "q1", "q3"),
    ),
))

_rule(RuleSchema(
    "SEG_SUM", ("a", "m", "b", "a2", "m2", "b2"),
    premises=(
        _f("between", "a", "m", "b"),
        _f("between", "a2", "m2", "b2"),
        _f("seg_eq", "a", "m", "a2", "m2"),
        _f("seg_eq", "m", "b", "m2", "b2"),
    ),
    side_conditions=(),
    conclusions=(_f("seg_eq", "a", "b", "a2", "b2"),),
))

_rule(RuleSchema(
    "SUPP_CONG", ("a", "b", "c", "d", "a2", "b2", "c2", "d2"),
    premises=(
        _f("between", "a", "b", "d"),
        _f("between", "a2", "b2", "d2"),
        _f("ang_eq", "d", "b", "c", "d2", "b2", "c2"),
    ),
    side_conditions=(("a", "b", "c"), ("a2", "b2", "c2")),
    conclusions=(_f("ang_eq", "a", "b", "c", "a2", "b2", "c2"),),
))

_rule(RuleSchema(
    "ARM_SUBST", ("v", "w", "m", "z"),
    premises=(_f("between", "v", "m", "w"),),
    side_conditions=(("v", "w", "z"),),
    conclusions=(_f("ang_eq", "w", "v", "z", "m", "v", "z"),),
))

_rule(RuleSchema(
    "WHOLE_PART_SEG", ("a", "m", "b"),
    premises=(_f("between", "a", "m", "b"),),
    side_conditions=(),
    conclusions=(_f("seg_lt", "a", "m", "a", "b"),),
))

_rule(RuleSchema(
    "WHOLE_PART_ANG", ("a", "m", "b", "z"),
    premises=(_f("between", "a", "m", "b"),),
    side_conditions=(("a", "b", "z"),),
    conclusions=(_f("ang_lt", "a", "z", "m", "a", "z", "b"),),
))

_rule(RuleSchema(
    "LT_SUBST_SEG", ("a", "b", "c", "d", "e", "f", "g", "h"),
    premises=(
        _f("seg_lt", "a", "b", "c", "d"),
        _f("seg_eq", "a", "b", "e", "f"),
        _f("seg_eq", "c", "d", "g", "h"),
    ),
    side_conditions=(),
    conclusions=(_f("seg_lt", "e", "f", "g", "h"),),
))

_rule(RuleSchema(
    "LT_SUBST_ANG", ("a1", "v1", "b1", "a2", "v2", "b2", "a3", "v3", "b3", "a4", "v4", "b4"),
    premises=(
        _f("ang_lt", "a1", "v1", "b1", "a2", "v2", "b2"),
        _f("ang_eq", "a1", "v1", "b1", "a3", "v3", "b3"),
        _f("ang_eq", "a2", "v2", "b2", "a4", "v4", "b4"),
    ),
    side_conditions=(),
    conclusions=(_f("ang_lt", "a3", "v3", "b3", "a4", "v4", "b4"),),
))

_rule(RuleSchema(
    "ABSURD_LT_EQ_SEG", ("a", "b", "c", "d"),
    premises=(_f("seg_lt", "a", "b", "c", "d"), _f("seg_eq", "a", "b", "c", "d")),
    side_conditions=(),
    conclusions=(ABSURD,),
))

_rule(RuleSchema(
    "ABSURD_LT_EQ_ANG", ("a", "v", "b", "c", "w", "d"),
    premises=(
        _f("ang_lt", "a", "v", "b", "c", "w", "d"),
        _f("ang_eq", "a", "v", "b", "c", "w", "d"),
    ),
    side_conditions=(),
    conclusions=(ABSURD,),
))

_rule(RuleSchema(
    "NC_TRANSFER", ("x", "y", "z", "p", "q"),
    premises=(_f("noncollinear", "x", "y", "z"),),
    side_conditions=(),
    conclusions=(_f("noncollinear", "p", "q", "z"),),
    collinear_side=("p", "q", "x", "y"),
))


RULE_IDS: Tuple[str, ...] = tuple(sorted(RULES))
