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
points (bracketed Illinois regula falsi) and measures.  The facts each step
derives come from kernel.step_facts, the kernel's own description of the
step; they name points only, so one model_check call builds them once.  A
Trial holds a trial's points and measures each point pair once; the
sampler's guards measure every pair and hand that table on.  Statements
with the same points and hypotheses draw the same trials, so a sample store
shared by their checks draws each trial once (the model command keeps one
per run).

Each model's numeric profile (equality tolerance, sampling distances and
region, working domain) lives on its Model class in geometry; MIN_ANGLE is
the one sampling constant shared by all three.  The per-rule soundness
samplers form one table built from a few configuration shapes.
"""

from __future__ import annotations

import collections.abc
import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .geometry import DegenerateDirection, DomainError, GeodesicOutOfDomain, Model, Vec
from .kernel import (
    CasesStep,
    ExtendStep,
    LayoffStep,
    LemmaStep,
    Step,
    TheoremStatement,
    step_facts,
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
    non_collinear,
)


class MissingPoint(Exception):
    pass


class SamplingFailed(Exception):
    pass


class UnrealizableStep(SamplingFailed):
    """A proof step (lemma-introduced point, out-of-domain construction)
    that cannot be realized numerically for this instance."""


_MAX_ATTEMPTS = 1000
# smallest angle a sampled triangle or a sampler's prescribed angle may have
MIN_ANGLE = 0.15


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


def tolerance_for(model: Model) -> ToleranceProfile:
    return profile(model.eq_tol)


# ---------------------------------------------------------------------------
# Measurement


def _angle_of_sides(model: Model, p: float, q: float, r: float, tol: ToleranceProfile) -> float:
    """Angle between arms of lengths p and q whose far ends are r apart."""
    if p <= tol.eq_tol or q <= tol.eq_tol:
        raise DegenerateAngle(f"arm shorter than tolerance: {p!r}, {q!r}")
    return math.acos(min(1.0, max(-1.0, model.cos_angle(p, q, r))))


def angle_at(model: Model, a: Vec, v: Vec, b: Vec, tol: Optional[ToleranceProfile] = None) -> float:
    """Angle at vertex v between geodesics toward a and b, in (0, pi),
    via the model's law of cosines."""
    tol = tol or tolerance_for(model)
    return _angle_of_sides(model, model.dist(v, a), model.dist(v, b), model.dist(a, b), tol)


class Trial(collections.abc.Mapping):
    """One trial's points by name and the table of their pairwise
    distances, each pair measured on first use and stored under both
    orders (dist is bitwise symmetric).  It reads as a mapping from point
    name to coordinates, like a plain instance; placing a point makes a
    copy."""

    __slots__ = ("model", "pts", "dists")

    def __init__(self, model: Model, pts: Dict[str, Vec], dists: Optional[dict] = None):
        self.model, self.pts = model, pts
        self.dists: Dict[Tuple[str, str], float] = {} if dists is None else dists

    @staticmethod
    def of(model: Model, instance: Mapping[PointId, Vec]) -> "Trial":
        if isinstance(instance, Trial) and instance.model is model:
            return instance
        return Trial(model, dict(instance))

    def __getitem__(self, p: PointId) -> Vec:
        return self.pts[p]

    def __iter__(self):
        return iter(self.pts)

    def __len__(self) -> int:
        return len(self.pts)

    def point(self, name: str) -> Vec:
        try:
            return self.pts[name]
        except KeyError:
            raise MissingPoint(name) from None

    def dist(self, a: str, b: str) -> float:
        d = self.dists.get((a, b))
        if d is None:
            d = self.dists[a, b] = self.dists[b, a] = self.model.dist(self.point(a), self.point(b))
        return d

    def angle(self, arm1: str, vertex: str, arm2: str, tol: ToleranceProfile) -> float:
        return _angle_of_sides(
            self.model, self.dist(vertex, arm1), self.dist(vertex, arm2), self.dist(arm1, arm2), tol
        )

    def size(self, a: AngleTerm, tol: ToleranceProfile) -> float:
        _, vertex, arm1, arm2 = a
        return self.angle(arm1, vertex, arm2, tol)

    def length(self, s: SegmentTerm) -> float:
        return self.dist(s[1], s[2])

    def with_point(self, name: str, v: Vec) -> "Trial":
        """A copy with the point placed; a reused name moves its point, so
        that point's distances are dropped."""
        if name in self.pts:
            dists = {k: d for k, d in self.dists.items() if name not in k}
        else:
            dists = dict(self.dists)
        return Trial(self.model, {**self.pts, name: v}, dists)


def eval_fact(
    model: Model,
    instance: Mapping[PointId, Vec],
    fact: Fact,
    tol: Optional[ToleranceProfile] = None,
) -> bool:
    """Measure a fact in an instance or a Trial's table.  Degenerate angle
    configurations make angle facts false rather than raising."""
    tol = tol or tolerance_for(model)
    t = Trial.of(model, instance)
    if isinstance(fact, SegEq):
        return tol.close(t.length(fact.left), t.length(fact.right))
    if isinstance(fact, SegLt):
        return tol.less(t.length(fact.left), t.length(fact.right))
    if isinstance(fact, AngEq):
        try:
            return tol.close(t.size(fact.left, tol), t.size(fact.right, tol))
        except DegenerateAngle:
            return False
    if isinstance(fact, AngLt):
        try:
            return tol.less(t.size(fact.left, tol), t.size(fact.right, tol))
        except DegenerateAngle:
            return False
    if isinstance(fact, Between):
        _, m, a, b = fact
        am, mb, ab = t.dist(a, m), t.dist(m, b), t.dist(a, b)
        if tol.close(am, 0.0) or tol.close(mb, 0.0):
            return False
        return tol.close(am + mb, ab)
    if isinstance(fact, NonCollinear):
        names = fact[1:]
        for i in range(3):
            x, m, y = names[(i + 1) % 3], names[i], names[(i + 2) % 3]
            # collinearity defect must clear the strict margin
            if not tol.less(t.dist(x, y), t.dist(x, m) + t.dist(m, y)):
                return False
        return True
    if isinstance(fact, Absurd):
        return False
    raise ValueError(f"cannot evaluate fact {fact!r}")


# ---------------------------------------------------------------------------
# Instance sampling


def _rand_len(model: Model, rng: Random) -> float:
    return rng.uniform(model.min_separation, model.max_leg)


def _rand_angle(rng: Random) -> float:
    return rng.uniform(2.0 * MIN_ANGLE, math.pi - 2.0 * MIN_ANGLE)


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
    model: Model, pts: Dict[str, Vec], apex: str, left: str, right: str, rng: Random
) -> None:
    a = pts[apex]
    leg = rng.uniform(2.0 * model.min_separation, model.max_leg)
    opening = _rand_angle(rng)
    u = model.random_tangent(rng, a)
    pts[left] = model.exp(a, u, leg)
    pts[right] = model.exp(a, model.rotate_tangent(a, u, opening), leg)


def _constructive_pass(
    model: Model, pts: Dict[str, Vec], fact: Fact, rng: Random, tol: ToleranceProfile
) -> None:
    """Adjust point placements so `fact` holds by construction.  May
    raise DegenerateDirection/DomainError; callers treat that as a
    failed attempt."""
    if isinstance(fact, SegEq):
        shared = _shared_point(fact.left, fact.right)
        if shared is not None:
            s, m1, m2 = shared
            length = model.dist(pts[s], pts[m1])
            u = model.unit_tangent(pts[s], pts[m2])
            pts[m2] = model.exp(pts[s], u, length)
        else:
            length = model.dist(pts[fact.left.a], pts[fact.left.b])
            c, d = fact.right.a, fact.right.b
            u = model.unit_tangent(pts[c], pts[d])
            pts[d] = model.exp(pts[c], u, length)
    elif isinstance(fact, AngEq):
        apex = _base_angle_apex(fact.left, fact.right)
        if apex is not None:
            a, v, w = apex
            _place_isosceles(model, pts, a, v, w, rng)
        else:
            _, v, a, b = fact.left
            theta = angle_at(model, pts[a], pts[v], pts[b], tol)
            _, w, c, d = fact.right
            keep = model.dist(pts[w], pts[d])
            u = model.unit_tangent(pts[w], pts[c])
            sign = 1.0 if rng.random() < 0.5 else -1.0
            pts[d] = model.exp(pts[w], model.rotate_tangent(pts[w], u, sign * theta), keep)
    elif isinstance(fact, Between):
        a, b = pts[fact.a], pts[fact.b]
        t = rng.uniform(0.15, 0.85)
        pts[fact.mid] = model.point_toward(a, b, t * model.dist(a, b))
    # SegLt/AngLt/NonCollinear are left to rejection + guards


def _guarded(
    model: Model, pts: Dict[str, Vec], statement_like: Sequence[Fact], tol: ToleranceProfile
) -> Optional[Trial]:
    """The attempt's table, every pair measured, when the points pass the
    separation, region and clear-angle guards; None otherwise."""
    trial = Trial(model, pts)
    names = sorted(pts)
    sep, spread = model.min_separation, model.max_spread
    for i, n in enumerate(names):
        for m in names[i + 1 :]:
            d = trial.dist(n, m)
            if d < sep or d > spread:
                return None
    if not all(model.in_sample_region(p) for p in pts.values()):
        return None
    for fact in statement_like:
        if isinstance(fact, NonCollinear):
            tri = fact[1:]
            for i in range(3):
                try:
                    ang = trial.angle(tri[(i + 1) % 3], tri[i], tri[(i + 2) % 3], tol)
                except DegenerateAngle:
                    return None
                if ang < MIN_ANGLE or ang > math.pi - MIN_ANGLE:
                    return None
    return trial


def sample_instance(
    model: Model,
    statement: TheoremStatement,
    seed,
    tol: Optional[ToleranceProfile] = None,
) -> Trial:
    """Deterministically sample coordinates satisfying the statement's
    hypotheses: constructive placement where a hypothesis shape is
    recognized, rejection sampling plus nondegeneracy guards otherwise.
    Returns the accepted attempt's Trial, its distance table filled by the
    guards.  Raises SamplingFailed after 1000 attempts."""
    tol = tol or tolerance_for(model)
    hyps = [fact for _, fact in statement.hypotheses]
    for attempt in range(_MAX_ATTEMPTS):
        rng = Random(f"{seed}:{attempt}")
        pts: Dict[str, Vec] = {
            name: model.random_point(rng) for name in statement.points
        }
        try:
            for fact in hyps:
                _constructive_pass(model, pts, fact, rng, tol)
        except (DegenerateDirection, DomainError, DegenerateAngle):
            continue
        trial = _guarded(model, pts, hyps, tol)
        if trial is not None and all(eval_fact(model, trial, f, tol) for f in hyps):
            return trial
    raise SamplingFailed(f"{statement.name}: no instance in {_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# Construction realization


def realize_construction(
    model: Model,
    instance: Mapping[PointId, Vec],
    step,
    tol: Optional[ToleranceProfile] = None,
) -> Trial:
    """Place the fresh point of an extend/layoff step; returns a new
    instance.  Walking off the model's working domain (hemisphere, disk
    rim) raises GeodesicOutOfDomain."""
    if not isinstance(step, (ExtendStep, LayoffStep)):
        raise ValueError(f"not a construction step: {step!r}")
    t = Trial.of(model, instance)
    extend = isinstance(step, ExtendStep)
    # extend walks from a through b and on by seg; layoff walks seg from start
    a, b = (step.a, step.b) if extend else (step.start, step.toward)
    p, q = t.point(a), t.point(b)
    length = t.dist(*step.seg)
    try:
        fresh = model.point_toward(p, q, t.dist(a, b) + length if extend else length)
        model.validate(fresh)
    except (DegenerateDirection, DomainError) as exc:
        raise GeodesicOutOfDomain(str(exc)) from exc
    if not model.in_domain(fresh):
        raise GeodesicOutOfDomain(f"{step.label}: leaves the working domain")
    return t.with_point(step.fresh, fresh)


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
        raise UnrealizableStep(f"no betweenness carrier for introduced point {fresh}")
    inst = Trial.of(model, instance)
    a, b = inst.point(carrier.a), inst.point(carrier.b)
    span = inst.dist(carrier.a, carrier.b)
    u = model.unit_tangent(a, b)

    if target is None:
        return model.exp(a, u, 0.5 * span)

    probe = Trial(model, dict(inst.pts))

    def residual(t: float) -> float:
        probe.pts[fresh] = model.exp(a, u, t * span)
        probe.dists.clear()
        return probe.size(target.left, tol) - probe.size(target.right, tol)

    lo, hi = 1e-6, 1.0 - 1e-6
    flo, fhi = residual(lo), residual(hi)
    if fhi == 0.0:  # the probe is at hi; a zero at lo is the first step's root
        return probe.pts[fresh]
    if not flo * fhi <= 0.0:  # no sign change, or a NaN residual
        raise UnrealizableStep(f"no sign change bracketing {fresh}")
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
    return probe.pts[fresh]


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
    """A replayed step whose facts cannot be built from its points: it
    carries kernel.step_facts' ValueError, which the kernel reports as a
    DegenerateInstantiation."""


def _walk_steps(
    model: Model,
    instance: Trial,
    steps: Sequence[Step],
    tol: ToleranceProfile,
    derived: Callable[[Step], Tuple[Fact, ...]],
    out_facts,
) -> Trial:
    """Replay proof steps on an instance: realize constructions, solve
    lemma-introduced points, pick the numerically true trichotomy branch,
    and collect every derived fact for evaluation."""
    for step in steps:
        if isinstance(step, CasesStep):
            dl, dr = instance.dist(*step.left), instance.dist(*step.right)
            if tol.close(dl, dr):
                kind = "eq"
            elif tol.less(dl, dr):
                kind = "lt"
            elif tol.less(dr, dl):
                kind = "gt"
            else:
                raise _TrialSkip("segment comparison inside tolerance dead zone")
            branch = next(b for b in step.branches if b.kind == kind)
            instance = _walk_steps(model, instance, branch.steps, tol, derived, out_facts)
            continue
        facts = derived(step)
        if isinstance(step, (ExtendStep, LayoffStep)):
            try:
                instance = realize_construction(model, instance, step, tol)
            except GeodesicOutOfDomain as exc:
                raise _TrialSkip(str(exc)) from exc
        elif isinstance(step, LemmaStep):
            for name in step.fresh:
                try:
                    instance = instance.with_point(name, solve_introduced_point(
                        model, instance, name, facts, tol
                    ))
                except (UnrealizableStep, DegenerateDirection, DegenerateAngle) as exc:
                    raise _TrialSkip(str(exc)) from exc
        out_facts.extend(facts)
    return instance


def _freeze_instance(instance: Trial) -> Tuple[Tuple[str, Vec], ...]:
    return tuple(sorted(instance.pts.items()))


def _draws(model: Model, statement: TheoremStatement, trials: int, seed, tol, samples):
    """(k, Trial or None where sampling failed) for each trial.  A sample
    store (a dict) shares the draws among statements with the same points
    and hypotheses; a stored Trial's points never change."""
    key = (model, statement.points, tuple(f for _, f in statement.hypotheses), seed, tol)
    drawn = (samples if samples is not None else {}).setdefault(key, {})
    for k in range(trials):
        if k not in drawn:
            try:
                drawn[k] = sample_instance(model, statement, f"{seed}:{k}", tol)
            except SamplingFailed:
                drawn[k] = None
        yield k, drawn[k]


def model_check(
    model: Model,
    statement: TheoremStatement,
    steps: Sequence[Step] = (),
    trials: int = 1000,
    seed=0,
    tol: Optional[ToleranceProfile] = None,
    registry: Optional[Mapping[str, TheoremStatement]] = None,
    samples: Optional[dict] = None,
) -> ModelCheckReport:
    """Sample instances of the hypotheses and measure every derived fact
    plus the statement's conclusions.  Identical seeds give identical
    reports; unsatisfiable or unrealizable trials count as skipped.  Checks
    given the same `samples` dict share the draws of statements with the
    same points and hypotheses and report what fresh draws would."""
    tol = tol or tolerance_for(model)
    registry = registry or {}
    report = ModelCheckReport(model=model.name, trials=trials)
    memo: Dict[int, Tuple[Fact, ...]] = {}  # by id(step); facts name points only

    def derived(step: Step) -> Tuple[Fact, ...]:
        facts = memo.get(id(step))
        if facts is None:
            if isinstance(step, LemmaStep) and step.lemma not in registry:
                raise _TrialSkip(f"no statement for lemma {step.lemma}")
            try:
                facts = memo[id(step)] = step_facts(step, registry)
            except ValueError as exc:
                raise UninstantiableStep(
                    f"step {step.label} cannot be instantiated: {exc}"
                ) from None
        return facts

    for k, instance in _draws(model, statement, trials, seed, tol, samples):
        if instance is None:
            report.skipped += 1
            continue
        facts = []
        try:
            instance = _walk_steps(model, instance, steps, tol, derived, facts)
            for name in statement.introduced:
                if name not in instance.pts:
                    instance = instance.with_point(name, solve_introduced_point(
                        model, instance, name, statement.conclusions, tol
                    ))
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
    # measures a trial at the named points; returns (holds, detail) so
    # counterexamples can say what was measured
    evaluate: Callable[[Trial, Sequence[str], ToleranceProfile], Tuple[bool, str]]


def _angle_sum_pi(t: Trial, names: Sequence[str], tol: ToleranceProfile) -> Tuple[bool, str]:
    a, b, c = names
    total = t.angle(b, a, c, tol) + t.angle(a, b, c, tol) + t.angle(a, c, b, tol)
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
    return TheoremStatement(
        name=name,
        tags=frozenset(),
        points=tuple(points),
        hypotheses=(("nondeg", non_collinear(*points[:3])),),
        conclusions=(),
    )


def model_check_conjecture(
    model: Model,
    name: str,
    points: Sequence[str],
    trials: int = 1000,
    seed=0,
    tol: Optional[ToleranceProfile] = None,
    samples: Optional[dict] = None,
) -> ModelCheckReport:
    tol = tol or tolerance_for(model)
    statement = conjecture_statement(name, points)
    conj = BUILTIN_CONJECTURES[name]
    report = ModelCheckReport(model=model.name, trials=trials)
    for k, instance in _draws(model, statement, trials, seed, tol, samples):
        if instance is None:
            report.skipped += 1
            continue
        report.trials_run += 1
        holds, detail = conj.evaluate(instance, points, tol)
        if not holds:
            report.failures += 1
            if report.first_counterexample is None:
                report.first_counterexample = Counterexample(
                    trial=k, fact=detail, points=_freeze_instance(instance)
                )
    return report


# ---------------------------------------------------------------------------
# Rule-level soundness harness

# Each sampler returns one premise-satisfying configuration of its rule's
# points, in RuleSchema.variables order, or None.  They are built from a few
# shapes; every draw comes from the trial's rng in a fixed order, so a seed
# gives one configuration.

_RuleSampler = Callable[[Model, Random], Optional[Sequence[Vec]]]


def _start(model: Model, rng: Random) -> Tuple[Vec, Vec]:
    """A random point and a random unit tangent there."""
    p = model.random_point(rng)
    return p, model.random_tangent(rng, p)


def _segment(model: Model, rng: Random, length: Optional[float] = None) -> Tuple[Vec, Vec]:
    """Two points the given (or a random) length apart."""
    p, u = _start(model, rng)
    return p, model.exp(p, u, _rand_len(model, rng) if length is None else length)


def _angle(model: Model, rng: Random, theta: Optional[float] = None) -> Tuple[Vec, Vec, Vec]:
    """(arm, vertex, arm) with the given (or a random clear) angle at the
    vertex."""
    v, u = _start(model, rng)
    la, lb = _rand_len(model, rng), _rand_len(model, rng)
    if theta is None:
        theta = _rand_angle(rng)
    return model.exp(v, u, la), v, model.exp(v, model.rotate_tangent(v, u, theta), lb)


def _arm(model: Model, rng: Random, v: Vec, u, theta: float) -> Vec:
    """A point a random length from v, at angle theta from the tangent u."""
    return model.exp(v, model.rotate_tangent(v, u, theta), _rand_len(model, rng))


def _each(model: Model, rng: Random, shape, params: Sequence) -> Tuple[Vec, ...]:
    """One shape per parameter, points concatenated in order."""
    return tuple(pt for x in params for pt in shape(model, rng, x))


def _congruent_pair(model: Model, rng: Random) -> Tuple[Vec, ...]:
    """Two congruent triangles (p1,p2,p3), (q1,q2,q3): same legs from the
    first vertex, same included angle, random placement and handedness."""
    l2, l3 = _rand_len(model, rng), _rand_len(model, rng)
    theta = _rand_angle(rng)
    p1, u = _start(model, rng)
    p2 = model.exp(p1, u, l2)
    p3 = model.exp(p1, model.rotate_tangent(p1, u, theta), l3)
    q1, w = _start(model, rng)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    q2 = model.exp(q1, w, l2)
    q3 = model.exp(q1, model.rotate_tangent(q1, w, sign * theta), l3)
    return p1, p2, p3, q1, q2, q3


def _ray_with_offside(model: Model, rng: Random) -> Tuple[Vec, Vec, Vec, Vec]:
    """v, interior point m, far point w on one geodesic ray, plus z off
    the line at a healthy angle."""
    v, u = _start(model, rng)
    l1, l2 = _rand_len(model, rng), _rand_len(model, rng)
    m, w = model.exp(v, u, l1), model.exp(v, u, l1 + l2)
    return v, m, w, _arm(model, rng, v, u, _rand_angle(rng))


def _split_segment(model: Model, rng: Random, lengths: Tuple[float, float]) -> Tuple[Vec, Vec, Vec]:
    """(outer, mid, outer) with the two parts of the given lengths."""
    p, u = _start(model, rng)
    l1, l2 = lengths
    return p, model.exp(p, u, l1), model.exp(p, u, l1 + l2)


def _supplement(model: Model, rng: Random, phi: float) -> Tuple[Vec, Vec, Vec, Vec]:
    """(a, b, c, d) with b between a and d, and angle d-b-c equal to phi."""
    b, u = _start(model, rng)
    la, ld = _rand_len(model, rng), _rand_len(model, rng)
    a = model.exp(b, u, la)
    return a, b, _arm(model, rng, b, u, phi), model.exp(b, u, -ld)


def _seg_sym(model: Model, rng: Random) -> Tuple[Vec, ...]:
    a, b = _segment(model, rng)
    return (a, b) + _segment(model, rng, model.dist(a, b))


def _arm_subst(model: Model, rng: Random) -> Tuple[Vec, ...]:
    v, m, w, z = _ray_with_offside(model, rng)
    return v, w, m, z


def _lt_subst_seg(model: Model, rng: Random) -> Tuple[Vec, ...]:
    lo = _rand_len(model, rng)
    sep = model.min_separation
    hi = lo + rng.uniform(0.3 * sep, 0.8 * sep) + lo * 0.1
    return _each(model, rng, _segment, (lo, hi, lo, hi))


def _lt_subst_ang(model: Model, rng: Random) -> Tuple[Vec, ...]:
    lo = rng.uniform(MIN_ANGLE, math.pi - 3.0 * MIN_ANGLE)
    hi = lo + rng.uniform(0.5 * MIN_ANGLE, 2.0 * MIN_ANGLE)
    return _each(model, rng, _angle, (lo, hi, lo, hi))


# The contradiction rules' premises can never hold together; their samplers
# come close (equal or strictly smaller) to stress the dead zone.


def _absurd_seg(model: Model, rng: Random) -> Tuple[Vec, ...]:
    length = _rand_len(model, rng)
    bump = rng.choice([0.0, 0.5 * model.min_separation])
    return _each(model, rng, _segment, (length, length + bump))


def _absurd_ang(model: Model, rng: Random) -> Tuple[Vec, ...]:
    theta = _rand_angle(rng)
    bump = rng.choice([0.0, 2.0 * MIN_ANGLE])
    return _each(model, rng, _angle, (theta, min(theta + bump, math.pi - 0.05)))


def _nc_transfer(model: Model, rng: Random) -> Optional[Tuple[Vec, ...]]:
    # p and q are placed on the geodesic through x and y: the rule's
    # shared-line side condition, enforced here by construction
    sep, span = model.min_separation, model.max_leg
    x, u = _start(model, rng)
    ty = (1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(1.5 * sep, span)
    tp = rng.uniform(-span, span)
    tq = rng.uniform(-span, span)
    if abs(tp - tq) < 1.2 * sep:
        return None
    y, p, q = (model.exp(x, u, t) for t in (ty, tp, tq))
    return x, y, _arm(model, rng, x, u, _rand_angle(rng)), p, q


_RULE_SAMPLERS: Dict[str, _RuleSampler] = {
    "SEG_REFL": _segment,
    "ANG_REFL": _angle,
    "SEG_SYM": _seg_sym,
    "ANG_SYM": lambda model, rng: _each(model, rng, _angle, [_rand_angle(rng)] * 2),
    "SEG_TRANS": lambda model, rng: _each(model, rng, _segment, [_rand_len(model, rng)] * 3),
    "ANG_TRANS": lambda model, rng: _each(model, rng, _angle, [_rand_angle(rng)] * 3),
    "SAS_ORD": _congruent_pair,
    # a congruent copy satisfies the angle-angle-side premises as well
    "ASA_ORD": _congruent_pair,
    "SEG_SUM": lambda model, rng: _each(
        model, rng, _split_segment, [(_rand_len(model, rng), _rand_len(model, rng))] * 2
    ),
    "SUPP_CONG": lambda model, rng: _each(model, rng, _supplement, [_rand_angle(rng)] * 2),
    "ARM_SUBST": _arm_subst,
    "WHOLE_PART_SEG": lambda model, rng: _ray_with_offside(model, rng)[:3],
    "WHOLE_PART_ANG": _ray_with_offside,
    "LT_SUBST_SEG": _lt_subst_seg,
    "LT_SUBST_ANG": _lt_subst_ang,
    "ABSURD_LT_EQ_SEG": _absurd_seg,
    "ABSURD_LT_EQ_ANG": _absurd_ang,
    "NC_TRANSFER": _nc_transfer,
}


def check_rule_soundness(
    model: Model,
    rule_id: str,
    trials: int = 1000,
    seed=0,
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
    binding = {var: var for var in schema.variables}
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
            pts = sampler(model, rng)
        except (DegenerateDirection, DomainError, DegenerateAngle):
            pts = None
        if pts is None or not all(model.in_domain(p) for p in pts):
            report.skipped += 1
            continue
        instance = Trial(model, dict(zip(schema.variables, pts)))
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
