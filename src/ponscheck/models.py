"""Numeric semantics: facts evaluated in three constant-curvature models.

A theorem that survives the symbolic checker can additionally be tested
extensionally: sample instances of its hypotheses, replay construction
steps with real coordinates, and measure every derived fact.  A sound
derivation produces no failures in any model; a euclidean-only claim
(such as the angle-sum conjecture) fails visibly in the curved models.

Angle measurement uses each model's law of cosines (Model.cos_angle) over
the three pairwise distances; the tangent-vector formulation is kept out of
the production path on purpose so tests can use it as an independent oracle.

A trial only samples, replays constructions, solves lemma-introduced
points (bracketed Illinois regula falsi) and measures; the facts each step
derives name points only, so one model_check call builds them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .geometry import (
    DEFAULT_LIMITS,
    DegenerateDirection,
    DomainError,
    GeodesicOutOfDomain,
    Model,
    SamplingLimits,
    Vec,
)
from .kernel import (
    CasesStep,
    ExtendStep,
    LayoffStep,
    LemmaStep,
    RuleStep,
    Step,
    TheoremStatement,
    subst_fact,
)
from .rules import RULES, RuleSchema
from .terms import (
    Absurd,
    AngEq,
    AngLt,
    AngleTerm,
    Between,
    DegenerateAngle,
    Fact,
    NonCollinear,
    PointId,
    SegEq,
    SegLt,
    SegmentTerm,
    between,
    non_collinear,
    seg_eq,
    segment,
)

Instance = Dict[PointId, Vec]


class MissingPoint(Exception):
    pass


class SamplingFailed(Exception):
    pass


class UnrealizableStep(SamplingFailed):
    """A proof step (lemma-introduced point, out-of-domain construction)
    that cannot be realized numerically for this instance."""


_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class ToleranceProfile:
    """Relative-plus-absolute comparisons: two measures are equal when
    |x-y| <= eq_tol * (1 + max(|x|,|y|)), strictly ordered when they
    differ by the same scaling of lt_margin."""

    eq_tol: float
    lt_margin: float

    def close(self, x: float, y: float) -> bool:
        return abs(x - y) <= self.eq_tol * (1.0 + max(abs(x), abs(y)))

    def less(self, x: float, y: float) -> bool:
        return x < y - self.lt_margin * (1.0 + max(abs(x), abs(y)))


def profile(eq_tol: float) -> ToleranceProfile:
    return ToleranceProfile(eq_tol=eq_tol, lt_margin=10.0 * eq_tol)


TOLERANCES: Dict[str, ToleranceProfile] = {
    "euclidean": profile(1e-9),
    "poincare": profile(1e-7),
    "sphere": profile(1e-7),
}


def tolerance_for(model: Model, eq_tol: Optional[float] = None) -> ToleranceProfile:
    if eq_tol is not None:
        return profile(eq_tol)
    return TOLERANCES[model.name]


# ---------------------------------------------------------------------------
# Measurement


def angle_at(model: Model, a: Vec, v: Vec, b: Vec, tol: Optional[ToleranceProfile] = None) -> float:
    """Angle at vertex v between geodesics toward a and b, in (0, pi),
    via the model's law of cosines."""
    tol = tol or tolerance_for(model)
    p = model.dist(v, a)
    q = model.dist(v, b)
    r = model.dist(a, b)
    if p <= tol.eq_tol or q <= tol.eq_tol:
        raise DegenerateAngle(f"arm shorter than tolerance: {p!r}, {q!r}")
    return math.acos(min(1.0, max(-1.0, model.cos_angle(p, q, r))))


def _coords(instance: Mapping[PointId, Vec], p: PointId) -> Vec:
    try:
        return instance[p]
    except KeyError:
        raise MissingPoint(p.name) from None


def _seg_len(model: Model, instance: Mapping[PointId, Vec], s: SegmentTerm) -> float:
    return model.dist(_coords(instance, s.a), _coords(instance, s.b))


def _ang_size(
    model: Model, instance: Mapping[PointId, Vec], a: AngleTerm, tol: ToleranceProfile
) -> float:
    return angle_at(
        model,
        _coords(instance, a.arm1),
        _coords(instance, a.vertex),
        _coords(instance, a.arm2),
        tol,
    )


def eval_fact(
    model: Model,
    instance: Mapping[PointId, Vec],
    fact: Fact,
    tol: Optional[ToleranceProfile] = None,
) -> bool:
    """Measure a fact in an instance.  Degenerate angle configurations
    make angle facts false rather than raising."""
    tol = tol or tolerance_for(model)
    if isinstance(fact, SegEq):
        return tol.close(
            _seg_len(model, instance, fact.left), _seg_len(model, instance, fact.right)
        )
    if isinstance(fact, SegLt):
        return tol.less(
            _seg_len(model, instance, fact.left), _seg_len(model, instance, fact.right)
        )
    if isinstance(fact, AngEq):
        try:
            return tol.close(
                _ang_size(model, instance, fact.left, tol),
                _ang_size(model, instance, fact.right, tol),
            )
        except DegenerateAngle:
            return False
    if isinstance(fact, AngLt):
        try:
            return tol.less(
                _ang_size(model, instance, fact.left, tol),
                _ang_size(model, instance, fact.right, tol),
            )
        except DegenerateAngle:
            return False
    if isinstance(fact, Between):
        m = _coords(instance, fact.mid)
        a = _coords(instance, fact.a)
        b = _coords(instance, fact.b)
        am, mb, ab = model.dist(a, m), model.dist(m, b), model.dist(a, b)
        if tol.close(am, 0.0) or tol.close(mb, 0.0):
            return False
        return tol.close(am + mb, ab)
    if isinstance(fact, NonCollinear):
        pts = [_coords(instance, p) for p in (fact.a, fact.b, fact.c)]
        for i in range(3):
            x, m, y = pts[(i + 1) % 3], pts[i], pts[(i + 2) % 3]
            # collinearity defect must clear the strict margin
            if not tol.less(model.dist(x, y), model.dist(x, m) + model.dist(m, y)):
                return False
        return True
    if isinstance(fact, Absurd):
        return False
    raise ValueError(f"cannot evaluate fact {fact!r}")


# ---------------------------------------------------------------------------
# Instance sampling

_MAX_LEG = {"euclidean": 2.5, "poincare": 0.9, "sphere": 0.45}


def _shared_point(l: SegmentTerm, r: SegmentTerm) -> Optional[Tuple[PointId, PointId, PointId]]:
    """(shared, other-of-l, other-of-r) when the segments share exactly
    one endpoint."""
    ls, rs = {l.a, l.b}, {r.a, r.b}
    common = ls & rs
    if len(common) != 1:
        return None
    s = common.pop()
    return s, (ls - {s}).pop(), (rs - {s}).pop()


def _base_angle_apex(l: AngleTerm, r: AngleTerm) -> Optional[Tuple[PointId, PointId, PointId]]:
    """Detect the two-base-angles-of-one-triangle pattern: angles at v
    and w whose arms are each other plus a common apex.  Returns
    (apex, v, w)."""
    v, w = l.vertex, r.vertex
    if v == w:
        return None
    larms, rarms = {l.arm1, l.arm2}, {r.arm1, r.arm2}
    if w not in larms or v not in rarms:
        return None
    apex_l, apex_r = (larms - {w}).pop(), (rarms - {v}).pop()
    if apex_l != apex_r or apex_l in (v, w):
        return None
    return apex_l, v, w


def _place_isosceles(
    model: Model, pts: Dict[str, Vec], apex: str, left: str, right: str,
    rng: Random, limits: SamplingLimits,
) -> None:
    a = pts[apex]
    sep = limits.separation_for(model)
    leg = rng.uniform(max(sep * 1.2, 2.0 * sep), _MAX_LEG[model.name])
    opening = rng.uniform(2.0 * limits.min_angle, math.pi - 2.0 * limits.min_angle)
    u = model.random_tangent(rng, a)
    pts[left] = model.exp(a, u, leg)
    pts[right] = model.exp(a, model.rotate_tangent(a, u, opening), leg)


def _constructive_pass(
    model: Model, pts: Dict[str, Vec], fact: Fact, rng: Random, limits: SamplingLimits,
    tol: ToleranceProfile,
) -> None:
    """Adjust point placements so `fact` holds by construction.  May
    raise DegenerateDirection/DomainError; callers treat that as a
    failed attempt."""
    if isinstance(fact, SegEq):
        shared = _shared_point(fact.left, fact.right)
        if shared is not None:
            s, m1, m2 = shared
            length = model.dist(pts[s.name], pts[m1.name])
            u = model.unit_tangent(pts[s.name], pts[m2.name])
            pts[m2.name] = model.exp(pts[s.name], u, length)
        else:
            length = model.dist(pts[fact.left.a.name], pts[fact.left.b.name])
            c, d = fact.right.a.name, fact.right.b.name
            u = model.unit_tangent(pts[c], pts[d])
            pts[d] = model.exp(pts[c], u, length)
    elif isinstance(fact, AngEq):
        apex = _base_angle_apex(fact.left, fact.right)
        if apex is not None:
            a, v, w = apex
            _place_isosceles(model, pts, a.name, v.name, w.name, rng, limits)
        else:
            theta = angle_at(
                model, pts[fact.left.arm1.name], pts[fact.left.vertex.name],
                pts[fact.left.arm2.name], tol,
            )
            w = fact.right.vertex.name
            c, d = fact.right.arm1.name, fact.right.arm2.name
            keep = model.dist(pts[w], pts[d])
            u = model.unit_tangent(pts[w], pts[c])
            sign = 1.0 if rng.random() < 0.5 else -1.0
            pts[d] = model.exp(pts[w], model.rotate_tangent(pts[w], u, sign * theta), keep)
    elif isinstance(fact, Between):
        a, b = pts[fact.a.name], pts[fact.b.name]
        t = rng.uniform(0.15, 0.85)
        pts[fact.mid.name] = model.point_toward(a, b, t * model.dist(a, b))
    # SegLt/AngLt/NonCollinear are left to rejection + guards


def _guards_ok(
    model: Model, pts: Mapping[str, Vec], statement_like: Sequence[Fact],
    limits: SamplingLimits, tol: ToleranceProfile,
) -> bool:
    names = sorted(pts)
    sep = limits.separation_for(model)
    for i, n in enumerate(names):
        for m in names[i + 1 :]:
            d = model.dist(pts[n], pts[m])
            if d < sep:
                return False
            if model.name == "sphere" and d > 1.0:
                return False
    if model.name == "sphere":
        if any(not model.in_hemisphere(p) for p in pts.values()):
            return False
    if model.name == "poincare":
        if any(math.hypot(p[0], p[1]) > limits.poincare_radius for p in pts.values()):
            return False
    for fact in statement_like:
        if isinstance(fact, NonCollinear):
            tri = [pts[p.name] for p in (fact.a, fact.b, fact.c)]
            for i in range(3):
                try:
                    ang = angle_at(model, tri[(i + 1) % 3], tri[i], tri[(i + 2) % 3], tol)
                except DegenerateAngle:
                    return False
                if ang < limits.min_angle or ang > math.pi - limits.min_angle:
                    return False
    return True


def sample_instance(
    model: Model,
    statement: TheoremStatement,
    seed,
    limits: SamplingLimits = DEFAULT_LIMITS,
    tol: Optional[ToleranceProfile] = None,
) -> Instance:
    """Deterministically sample coordinates satisfying the statement's
    hypotheses: constructive placement where a hypothesis shape is
    recognized, rejection sampling plus nondegeneracy guards otherwise.
    Raises SamplingFailed after 1000 attempts."""
    tol = tol or tolerance_for(model)
    hyps = [fact for _, fact in statement.hypotheses]
    for attempt in range(_MAX_ATTEMPTS):
        rng = Random(f"{seed}:{attempt}")
        pts: Dict[str, Vec] = {
            name: model.random_point(rng, limits) for name in statement.points
        }
        try:
            for fact in hyps:
                _constructive_pass(model, pts, fact, rng, limits, tol)
        except (DegenerateDirection, DomainError, DegenerateAngle):
            continue
        if not _guards_ok(model, pts, hyps, limits, tol):
            continue
        instance: Instance = {PointId(n): p for n, p in pts.items()}
        if all(eval_fact(model, instance, f, tol) for f in hyps):
            return instance
    raise SamplingFailed(f"{statement.name}: no instance in {_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# Construction realization


def realize_construction(
    model: Model,
    instance: Mapping[PointId, Vec],
    step,
    tol: Optional[ToleranceProfile] = None,
) -> Instance:
    """Place the fresh point of an extend/layoff step; returns a new
    instance.  Walking off the model's working domain (hemisphere, disk
    rim) raises GeodesicOutOfDomain."""
    if not isinstance(step, (ExtendStep, LayoffStep)):
        raise ValueError(f"not a construction step: {step!r}")
    extend = isinstance(step, ExtendStep)
    # extend walks from a through b and on by seg; layoff walks seg from start
    p = _coords(instance, PointId(step.a if extend else step.start))
    q = _coords(instance, PointId(step.b if extend else step.toward))
    length = model.dist(
        _coords(instance, PointId(step.seg[0])),
        _coords(instance, PointId(step.seg[1])),
    )
    try:
        fresh = model.point_toward(p, q, model.dist(p, q) + length if extend else length)
        model.validate(fresh)
    except (DegenerateDirection, DomainError) as exc:
        raise GeodesicOutOfDomain(str(exc)) from exc
    if model.name == "sphere" and not model.in_hemisphere(fresh):
        raise GeodesicOutOfDomain(f"{step.label}: leaves the working hemisphere")
    out: Instance = dict(instance)
    out[PointId(step.fresh)] = fresh
    return out


# The solver stops once the angle residual, or the bracket measured as arc
# length, is below this fraction of the equality tolerance.
_SOLVE_MARGIN = 1e-3
_SOLVE_MAX_STEPS = 40


def solve_introduced_point(
    model: Model,
    instance: Mapping[PointId, Vec],
    fresh: PointId,
    conclusions: Sequence[Fact],
    tol: ToleranceProfile,
) -> Vec:
    """Realize a point that a lemma (or stated theorem) merely asserts:
    supported pattern is Between(fresh; {p, q}) plus at most one angle
    equality mentioning fresh.  The angle residual is bracketed by the two
    ends of the geodesic from p to q and its root found by Illinois regula
    falsi (Dowell & Jarratt 1971); without an angle equality the point is
    the midpoint.  UnrealizableStep when the bracket has no sign change."""
    carrier: Optional[Between] = None
    target: Optional[AngEq] = None
    for fact in conclusions:
        if isinstance(fact, Between) and fact.mid == fresh:
            carrier = fact
        elif isinstance(fact, AngEq) and fresh in (
            fact.left.vertex, fact.left.arm1, fact.left.arm2,
            fact.right.vertex, fact.right.arm1, fact.right.arm2,
        ):
            target = fact
    if carrier is None:
        raise UnrealizableStep(f"no betweenness carrier for introduced point {fresh.name}")
    a = _coords(instance, carrier.a)
    b = _coords(instance, carrier.b)
    span = model.dist(a, b)
    u = model.unit_tangent(a, b)

    if target is None:
        return model.exp(a, u, 0.5 * span)

    probe = dict(instance)

    def residual(t: float) -> float:
        probe[fresh] = model.exp(a, u, t * span)
        return _ang_size(model, probe, target.left, tol) - _ang_size(
            model, probe, target.right, tol
        )

    lo, hi = 1e-6, 1.0 - 1e-6
    flo, fhi = residual(lo), residual(hi)
    if fhi == 0.0:  # the probe is at hi; a zero at lo is the first step's root
        return probe[fresh]
    if not flo * fhi <= 0.0:  # no sign change, or a NaN residual
        raise UnrealizableStep(f"no sign change bracketing {fresh.name}")
    eps = _SOLVE_MARGIN * tol.eq_tol
    side = 0  # end the previous step replaced: -1 lo, +1 hi
    for _ in range(_SOLVE_MAX_STEPS):
        t = (lo * fhi - hi * flo) / (fhi - flo)
        ft = residual(t)
        if (ft < 0) == (flo < 0):
            lo, flo = t, ft
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = t, ft
            if side == 1:
                flo *= 0.5
            side = 1
        if abs(ft) <= eps or (hi - lo) * span <= eps:
            break
    return probe[fresh]


# ---------------------------------------------------------------------------
# Model checking


@dataclass(frozen=True)
class Counterexample:
    trial: int
    fact: str
    points: Tuple[Tuple[str, Vec], ...]  # name-sorted coordinates


@dataclass
class ModelCheckReport:
    model: str
    trials: int  # requested
    trials_run: int = 0  # fully evaluated
    failures: int = 0
    skipped: int = 0
    first_counterexample: Optional[Counterexample] = None

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "trials": self.trials,
            "trials_run": self.trials_run,
            "failures": self.failures,
            "skipped": self.skipped,
        }
        if self.first_counterexample is not None:
            d["first_counterexample"] = {
                "trial": self.first_counterexample.trial,
                "fact": self.first_counterexample.fact,
                "points": {
                    n: list(v) for n, v in self.first_counterexample.points
                },
            }
        return d


class _TrialSkip(Exception):
    pass


class UninstantiableStep(Exception):
    """A replayed step whose facts cannot be built from its points (the
    kernel rejects the same step as a DegenerateInstantiation)."""


class _StepPlan:
    """The facts each replayed step derives, shared by every trial of one
    model_check call: they name points only.  An entry is built when a
    trial first reaches its step, so a step that cannot be instantiated
    still fails where the replay reaches it."""

    def __init__(self, registry: Optional[Mapping[str, TheoremStatement]]):
        self.registry = registry
        self._facts: Dict[int, Tuple[Fact, ...]] = {}  # keyed by id(step)

    def facts(self, step: Step) -> Tuple[Fact, ...]:
        got = self._facts.get(id(step))
        if got is None:
            try:
                got = self._facts[id(step)] = self._build(step)
            except ValueError as exc:
                raise UninstantiableStep(
                    f"step {step.label} cannot be instantiated: {exc}"
                ) from None
        return got

    def _build(self, step: Step) -> Tuple[Fact, ...]:
        if isinstance(step, RuleStep):
            schema = RULES[step.rule_id]
            binding = schema.bind([PointId(n) for n in step.points])
            return schema.instantiate_conclusions(binding)
        if isinstance(step, (ExtendStep, LayoffStep)):
            fresh, seg = PointId(step.fresh), segment(*(PointId(n) for n in step.seg))
            if isinstance(step, ExtendStep):
                b = PointId(step.b)
                return between(b, PointId(step.a), fresh), seg_eq(segment(b, fresh), seg)
            start = PointId(step.start)
            return between(fresh, start, PointId(step.toward)), seg_eq(segment(start, fresh), seg)
        stmt = self.registry[step.lemma]
        if len(step.args) != len(stmt.points) or len(step.fresh) != len(stmt.introduced):
            raise ValueError(
                f"lemma {step.lemma} takes {len(stmt.points)} point(s) and introduces "
                f"{len(stmt.introduced)}, got {len(step.args)} and {len(step.fresh)}"
            )
        mapping = dict(zip(stmt.points, (PointId(n) for n in step.args)))
        mapping.update(zip(stmt.introduced, (PointId(n) for n in step.fresh)))
        return tuple(subst_fact(f, mapping) for f in stmt.conclusions)


def _walk_steps(
    model: Model,
    instance: Instance,
    steps: Sequence[Step],
    tol: ToleranceProfile,
    plan: _StepPlan,
    out_facts,
) -> Instance:
    """Replay proof steps on an instance: realize constructions, pick
    the numerically true trichotomy branch, and collect every derived
    fact for evaluation."""
    for step in steps:
        if isinstance(step, RuleStep):
            out_facts.extend(plan.facts(step))
        elif isinstance(step, (ExtendStep, LayoffStep)):
            try:
                instance = realize_construction(model, instance, step, tol)
            except GeodesicOutOfDomain as exc:
                raise _TrialSkip(str(exc)) from exc
            out_facts.extend(plan.facts(step))
        elif isinstance(step, LemmaStep):
            if plan.registry is None or step.lemma not in plan.registry:
                raise _TrialSkip(f"no statement for lemma {step.lemma}")
            conclusions = plan.facts(step)
            inst2 = dict(instance)
            for name in step.fresh:
                pid = PointId(name)
                try:
                    inst2[pid] = solve_introduced_point(
                        model, inst2, pid, conclusions, tol
                    )
                except (UnrealizableStep, DegenerateDirection, DegenerateAngle) as exc:
                    raise _TrialSkip(str(exc)) from exc
            instance = inst2
            out_facts.extend(conclusions)
        elif isinstance(step, CasesStep):
            dl, dr = (
                model.dist(_coords(instance, PointId(x)), _coords(instance, PointId(y)))
                for x, y in (step.left, step.right)
            )
            if tol.close(dl, dr):
                kind = "eq"
            elif tol.less(dl, dr):
                kind = "lt"
            elif tol.less(dr, dl):
                kind = "gt"
            else:
                raise _TrialSkip("segment comparison inside tolerance dead zone")
            branch = next(b for b in step.branches if b.kind == kind)
            instance = _walk_steps(model, instance, branch.steps, tol, plan, out_facts)
        else:
            raise ValueError(f"unknown step {step!r}")
    return instance


def _freeze_instance(instance: Mapping[PointId, Vec]) -> Tuple[Tuple[str, Vec], ...]:
    return tuple(sorted((p.name, v) for p, v in instance.items()))


def model_check(
    model: Model,
    statement: TheoremStatement,
    steps: Sequence[Step] = (),
    trials: int = 1000,
    seed=0,
    limits: SamplingLimits = DEFAULT_LIMITS,
    tol: Optional[ToleranceProfile] = None,
    registry: Optional[Mapping[str, TheoremStatement]] = None,
) -> ModelCheckReport:
    """Sample instances of the hypotheses and measure every derived fact
    plus the statement's conclusions.  Identical seeds give identical
    reports; unsatisfiable or unrealizable trials count as skipped."""
    tol = tol or tolerance_for(model)
    report = ModelCheckReport(model=model.name, trials=trials)
    plan = _StepPlan(registry)
    for k in range(trials):
        try:
            instance = sample_instance(model, statement, f"{seed}:{k}", limits, tol)
        except SamplingFailed:
            report.skipped += 1
            continue
        facts = []
        try:
            instance = _walk_steps(model, instance, steps, tol, plan, facts)
            for name in statement.introduced:
                pid = PointId(name)
                if pid not in instance:
                    instance[pid] = solve_introduced_point(
                        model, instance, pid, statement.conclusions, tol
                    )
        except (_TrialSkip, UnrealizableStep):
            report.skipped += 1
            continue
        facts.extend(statement.conclusions)
        report.trials_run += 1
        for fact in facts:
            try:
                holds = eval_fact(model, instance, fact, tol)
            except MissingPoint:
                holds = False
            if not holds:
                report.failures += 1
                if report.first_counterexample is None:
                    report.first_counterexample = Counterexample(
                        trial=k, fact=repr(fact), points=_freeze_instance(instance)
                    )
                break
    return report


# ---------------------------------------------------------------------------
# Built-in numeric conjectures


@dataclass(frozen=True)
class BuiltinConjecture:
    name: str
    arity: int
    # returns (holds, detail) so counterexamples can say what was measured
    evaluate: Callable[[Model, Sequence[Vec], ToleranceProfile], Tuple[bool, str]]


def _angle_sum_pi(model: Model, pts: Sequence[Vec], tol: ToleranceProfile) -> Tuple[bool, str]:
    a, b, c = pts
    total = (
        angle_at(model, b, a, c, tol)
        + angle_at(model, a, b, c, tol)
        + angle_at(model, a, c, b, tol)
    )
    return tol.close(total, math.pi), f"angle sum {total!r} vs pi"


BUILTIN_CONJECTURES: Dict[str, BuiltinConjecture] = {
    "angle_sum_pi": BuiltinConjecture("angle_sum_pi", 3, _angle_sum_pi),
}


class UnknownConjecture(Exception):
    pass


def conjecture_statement(name: str, points: Sequence[str]) -> TheoremStatement:
    """Sampling harness for a conjecture: bare points constrained to a
    nondegenerate triangle on the first three."""
    if name not in BUILTIN_CONJECTURES:
        raise UnknownConjecture(name)
    conj = BUILTIN_CONJECTURES[name]
    if len(points) != conj.arity:
        raise UnknownConjecture(
            f"{name} expects {conj.arity} points, got {len(points)}"
        )
    pids = [PointId(p) for p in points]
    return TheoremStatement(
        name=name,
        tags=frozenset(),
        points=tuple(points),
        hypotheses=(("nondeg", non_collinear(*pids[:3])),),
        conclusions=(),
    )


def model_check_conjecture(
    model: Model,
    name: str,
    points: Sequence[str],
    trials: int = 1000,
    seed=0,
    limits: SamplingLimits = DEFAULT_LIMITS,
    tol: Optional[ToleranceProfile] = None,
) -> ModelCheckReport:
    tol = tol or tolerance_for(model)
    conj = BUILTIN_CONJECTURES.get(name)
    if conj is None:
        raise UnknownConjecture(name)
    statement = conjecture_statement(name, points)
    report = ModelCheckReport(model=model.name, trials=trials)
    pids = [PointId(p) for p in points]
    for k in range(trials):
        try:
            instance = sample_instance(model, statement, f"{seed}:{k}", limits, tol)
        except SamplingFailed:
            report.skipped += 1
            continue
        report.trials_run += 1
        holds, detail = conj.evaluate(model, [instance[p] for p in pids], tol)
        if not holds:
            report.failures += 1
            if report.first_counterexample is None:
                report.first_counterexample = Counterexample(
                    trial=k, fact=detail, points=_freeze_instance(instance)
                )
    return report


# ---------------------------------------------------------------------------
# Rule-level soundness harness

_RuleSampler = Callable[[Model, Random, SamplingLimits], Optional[Dict[str, Vec]]]
_RULE_SAMPLERS: Dict[str, _RuleSampler] = {}


def _rule_sampler(rule_id: str):
    def deco(fn: _RuleSampler) -> _RuleSampler:
        _RULE_SAMPLERS[rule_id] = fn
        return fn

    return deco


def _sep(model: Model, limits: SamplingLimits) -> float:
    return limits.separation_for(model)


def _rand_len(model: Model, rng: Random, limits: SamplingLimits) -> float:
    return rng.uniform(_sep(model, limits), _MAX_LEG[model.name])


def _rand_angle(rng: Random, limits: SamplingLimits) -> float:
    return rng.uniform(2.0 * limits.min_angle, math.pi - 2.0 * limits.min_angle)


def _fat_triangle(
    model: Model, rng: Random, limits: SamplingLimits
) -> Tuple[Vec, Vec, Vec]:
    """Apex plus two legs at a clear opening angle; always nondegenerate."""
    v = model.random_point(rng, limits)
    u = model.random_tangent(rng, v)
    la, lb = _rand_len(model, rng, limits), _rand_len(model, rng, limits)
    a = model.exp(v, u, la)
    b = model.exp(v, model.rotate_tangent(v, u, _rand_angle(rng, limits)), lb)
    return a, v, b


def _hemi_ok(model: Model, *pts: Vec) -> bool:
    if model.name != "sphere":
        return True
    return all(model.in_hemisphere(p) for p in pts)


def _angle_config(
    model: Model, rng: Random, limits: SamplingLimits, theta: float
) -> Tuple[Vec, Vec, Vec]:
    """(arm, vertex, arm) with the prescribed angle at the vertex."""
    v = model.random_point(rng, limits)
    u = model.random_tangent(rng, v)
    a = model.exp(v, u, _rand_len(model, rng, limits))
    b = model.exp(v, model.rotate_tangent(v, u, theta), _rand_len(model, rng, limits))
    return a, v, b


@_rule_sampler("SEG_REFL")
def _s_seg_refl(model, rng, limits):
    p = model.random_point(rng, limits)
    u = model.random_tangent(rng, p)
    q = model.exp(p, u, _rand_len(model, rng, limits))
    if not _hemi_ok(model, p, q):
        return None
    return {"a": p, "b": q}


@_rule_sampler("ANG_REFL")
def _s_ang_refl(model, rng, limits):
    a, v, b = _fat_triangle(model, rng, limits)
    if not _hemi_ok(model, a, v, b):
        return None
    return {"a": a, "v": v, "b": b}


@_rule_sampler("SEG_SYM")
def _s_seg_sym(model, rng, limits):
    a = model.random_point(rng, limits)
    b = model.exp(a, model.random_tangent(rng, a), _rand_len(model, rng, limits))
    c = model.random_point(rng, limits)
    d = model.exp(c, model.random_tangent(rng, c), model.dist(a, b))
    if not _hemi_ok(model, a, b, c, d):
        return None
    return {"a": a, "b": b, "c": c, "d": d}


@_rule_sampler("ANG_SYM")
def _s_ang_sym(model, rng, limits):
    theta = _rand_angle(rng, limits)
    a, v, b = _angle_config(model, rng, limits, theta)
    c, w, d = _angle_config(model, rng, limits, theta)
    if not _hemi_ok(model, a, v, b, c, w, d):
        return None
    return {"a": a, "v": v, "b": b, "c": c, "w": w, "d": d}


@_rule_sampler("SEG_TRANS")
def _s_seg_trans(model, rng, limits):
    length = _rand_len(model, rng, limits)
    out = {}
    for pair in (("a", "b"), ("c", "d"), ("e", "f")):
        p = model.random_point(rng, limits)
        q = model.exp(p, model.random_tangent(rng, p), length)
        out[pair[0]], out[pair[1]] = p, q
    if not _hemi_ok(model, *out.values()):
        return None
    return out


@_rule_sampler("ANG_TRANS")
def _s_ang_trans(model, rng, limits):
    theta = _rand_angle(rng, limits)
    out = {}
    for trip in (("a", "v", "b"), ("c", "w", "d"), ("e", "u", "f")):
        x, v, y = _angle_config(model, rng, limits, theta)
        out[trip[0]], out[trip[1]], out[trip[2]] = x, v, y
    if not _hemi_ok(model, *out.values()):
        return None
    return out


def _congruent_triples(
    model, rng, limits
) -> Optional[Tuple[Tuple[Vec, Vec, Vec], Tuple[Vec, Vec, Vec]]]:
    """Two congruent triangles (p1,p2,p3), (q1,q2,q3): same legs from the
    first vertex, same included angle, random placement and handedness."""
    l2, l3 = _rand_len(model, rng, limits), _rand_len(model, rng, limits)
    theta = _rand_angle(rng, limits)
    p1 = model.random_point(rng, limits)
    u = model.random_tangent(rng, p1)
    p2 = model.exp(p1, u, l2)
    p3 = model.exp(p1, model.rotate_tangent(p1, u, theta), l3)
    q1 = model.random_point(rng, limits)
    w = model.random_tangent(rng, q1)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    q2 = model.exp(q1, w, l2)
    q3 = model.exp(q1, model.rotate_tangent(q1, w, sign * theta), l3)
    if not _hemi_ok(model, p1, p2, p3, q1, q2, q3):
        return None
    return (p1, p2, p3), (q1, q2, q3)


@_rule_sampler("SAS_ORD")
def _s_sas(model, rng, limits):
    pair = _congruent_triples(model, rng, limits)
    if pair is None:
        return None
    (p1, p2, p3), (q1, q2, q3) = pair
    return {"p1": p1, "p2": p2, "p3": p3, "q1": q1, "q2": q2, "q3": q3}


@_rule_sampler("ASA_ORD")
def _s_asa(model, rng, limits):
    # a congruent copy satisfies the angle-angle-side premises as well
    return _s_sas(model, rng, limits)


@_rule_sampler("SEG_SUM")
def _s_seg_sum(model, rng, limits):
    l1 = _rand_len(model, rng, limits)
    l2 = _rand_len(model, rng, limits)
    if model.name == "sphere" and l1 + l2 > 1.4:
        return None
    out = {}
    for trip in (("a", "m", "b"), ("a2", "m2", "b2")):
        p = model.random_point(rng, limits)
        u = model.random_tangent(rng, p)
        out[trip[0]] = p
        out[trip[1]] = model.exp(p, u, l1)
        out[trip[2]] = model.exp(p, u, l1 + l2)
    if not _hemi_ok(model, *out.values()):
        return None
    return out


@_rule_sampler("SUPP_CONG")
def _s_supp_cong(model, rng, limits):
    phi = _rand_angle(rng, limits)
    out = {}
    for names in (("a", "b", "c", "d"), ("a2", "b2", "c2", "d2")):
        b = model.random_point(rng, limits)
        u = model.random_tangent(rng, b)
        la, ld = _rand_len(model, rng, limits), _rand_len(model, rng, limits)
        out[names[0]] = model.exp(b, u, la)
        out[names[1]] = b
        out[names[2]] = model.exp(
            b, model.rotate_tangent(b, u, phi), _rand_len(model, rng, limits)
        )
        out[names[3]] = model.exp(b, u, -ld)
    if not _hemi_ok(model, *out.values()):
        return None
    return out


def _ray_with_offside(model, rng, limits):
    """v, interior point m, far point w on one geodesic ray, plus z off
    the line at a healthy angle."""
    v = model.random_point(rng, limits)
    u = model.random_tangent(rng, v)
    l1 = _rand_len(model, rng, limits)
    l2 = _rand_len(model, rng, limits)
    if model.name == "sphere" and l1 + l2 > 1.4:
        return None
    m = model.exp(v, u, l1)
    w = model.exp(v, u, l1 + l2)
    z = model.exp(
        v, model.rotate_tangent(v, u, _rand_angle(rng, limits)),
        _rand_len(model, rng, limits),
    )
    if not _hemi_ok(model, v, m, w, z):
        return None
    return v, m, w, z


@_rule_sampler("ARM_SUBST")
def _s_arm_subst(model, rng, limits):
    got = _ray_with_offside(model, rng, limits)
    if got is None:
        return None
    v, m, w, z = got
    return {"v": v, "m": m, "w": w, "z": z}


@_rule_sampler("WHOLE_PART_SEG")
def _s_whole_part_seg(model, rng, limits):
    got = _ray_with_offside(model, rng, limits)
    if got is None:
        return None
    a, m, b, _ = got
    return {"a": a, "m": m, "b": b}


@_rule_sampler("WHOLE_PART_ANG")
def _s_whole_part_ang(model, rng, limits):
    got = _ray_with_offside(model, rng, limits)
    if got is None:
        return None
    a, m, b, z = got
    return {"a": a, "m": m, "b": b, "z": z}


@_rule_sampler("LT_SUBST_SEG")
def _s_lt_subst_seg(model, rng, limits):
    lo = _rand_len(model, rng, limits)
    hi = lo + rng.uniform(0.3 * _sep(model, limits), 0.8 * _sep(model, limits)) + lo * 0.1
    if model.name == "sphere" and hi > 1.0:
        return None
    out = {}
    for names, length in ((("a", "b"), lo), (("c", "d"), hi), (("e", "f"), lo), (("g", "h"), hi)):
        p = model.random_point(rng, limits)
        out[names[0]] = p
        out[names[1]] = model.exp(p, model.random_tangent(rng, p), length)
    if not _hemi_ok(model, *out.values()):
        return None
    return out


@_rule_sampler("LT_SUBST_ANG")
def _s_lt_subst_ang(model, rng, limits):
    lo = rng.uniform(limits.min_angle, math.pi - 3.0 * limits.min_angle)
    hi = lo + rng.uniform(0.5 * limits.min_angle, 2.0 * limits.min_angle)
    out = {}
    for trip, theta in (
        (("a1", "v1", "b1"), lo),
        (("a2", "v2", "b2"), hi),
        (("a3", "v3", "b3"), lo),
        (("a4", "v4", "b4"), hi),
    ):
        p, q, r = _angle_config(model, rng, limits, theta)
        out[trip[0]], out[trip[1]], out[trip[2]] = p, q, r
    if not _hemi_ok(model, *out.values()):
        return None
    return out


@_rule_sampler("ABSURD_LT_EQ_SEG")
def _s_absurd_seg(model, rng, limits):
    # premises can never hold together; sample configurations that come
    # close (equal or strictly shorter) to stress the dead zone
    length = _rand_len(model, rng, limits)
    bump = rng.choice([0.0, 0.5 * _sep(model, limits)])
    out = {}
    for names, l in ((("a", "b"), length), (("c", "d"), length + bump)):
        p = model.random_point(rng, limits)
        out[names[0]] = p
        out[names[1]] = model.exp(p, model.random_tangent(rng, p), l)
    if not _hemi_ok(model, *out.values()):
        return None
    return out


@_rule_sampler("ABSURD_LT_EQ_ANG")
def _s_absurd_ang(model, rng, limits):
    theta = _rand_angle(rng, limits)
    bump = rng.choice([0.0, 2.0 * limits.min_angle])
    a, v, b = _angle_config(model, rng, limits, theta)
    c, w, d = _angle_config(model, rng, limits, min(theta + bump, math.pi - 0.05))
    if not _hemi_ok(model, a, v, b, c, w, d):
        return None
    return {"a": a, "v": v, "b": b, "c": c, "w": w, "d": d}


@_rule_sampler("NC_TRANSFER")
def _s_nc_transfer(model, rng, limits):
    # p and q are placed on the geodesic through x and y: the rule's
    # shared-line side condition, enforced here by construction
    sep = _sep(model, limits)
    span = _MAX_LEG[model.name]
    x = model.random_point(rng, limits)
    u = model.random_tangent(rng, x)
    ty = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(1.5 * sep, span)
    tp = rng.uniform(-span, span)
    tq = rng.uniform(-span, span)
    if abs(tp - tq) < 1.2 * sep:
        return None
    y = model.exp(x, u, ty)
    p = model.exp(x, u, tp)
    q = model.exp(x, u, tq)
    z = model.exp(
        x, model.rotate_tangent(x, u, _rand_angle(rng, limits)),
        _rand_len(model, rng, limits),
    )
    if not _hemi_ok(model, x, y, p, q, z):
        return None
    return {"x": x, "y": y, "p": p, "q": q, "z": z}


def check_rule_soundness(
    model: Model,
    rule_id: str,
    trials: int = 1000,
    seed=0,
    limits: SamplingLimits = DEFAULT_LIMITS,
    tol: Optional[ToleranceProfile] = None,
) -> ModelCheckReport:
    """For each trial build a random premise-satisfying instantiation of
    the rule and measure its conclusions.  Trials whose premises fail
    numerically (including the always-unsatisfiable contradiction rules)
    are counted as skipped, never as failures."""
    tol = tol or tolerance_for(model)
    schema: RuleSchema = RULES[rule_id]
    sampler = _RULE_SAMPLERS[rule_id]
    report = ModelCheckReport(model=model.name, trials=trials)
    binding = {var: PointId(var) for var in schema.variables}
    premises = schema.instantiate_premises(binding)
    conclusions = schema.instantiate_conclusions(binding)
    sides = [
        non_collinear(binding[a], binding[b], binding[c])
        for a, b, c in schema.side_conditions
    ]
    required = list(premises) + sides
    vacuous = any(isinstance(c, Absurd) for c in conclusions)
    # contradiction rules have no satisfying instantiation: run the
    # requested number of attempts and insist none satisfies the premises
    budget = trials if vacuous else 50 * trials
    for k in range(budget):
        if not vacuous and report.trials_run >= trials:
            break
        rng = Random(f"{seed}:{rule_id}:{model.name}:{k}")
        try:
            coords = sampler(model, rng, limits)
        except (DegenerateDirection, DomainError, DegenerateAngle):
            coords = None
        if coords is None:
            report.skipped += 1
            continue
        instance: Instance = {PointId(n): v for n, v in coords.items()}
        if not all(eval_fact(model, instance, f, tol) for f in required):
            report.skipped += 1
            continue
        report.trials_run += 1
        for fact in conclusions:
            if not eval_fact(model, instance, fact, tol):
                report.failures += 1
                if report.first_counterexample is None:
                    report.first_counterexample = Counterexample(
                        trial=k, fact=repr(fact), points=_freeze_instance(instance)
                    )
                break
    return report


def missing_rule_samplers() -> Tuple[str, ...]:
    return tuple(sorted(set(RULES) - set(_RULE_SAMPLERS)))
