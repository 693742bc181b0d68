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
the one sampling constant shared by all three.  There is one sampler: the
rule soundness harness takes each rule's premises and side conditions as
hypotheses and samples them with sample_instance's attempts.
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
    ABSURD,
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
    fact_point_names,
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
# smallest angle a sampled noncollinear triangle may have; an opening the
# sampler prescribes stays twice as far from 0 and pi
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


def _moves(left, right, placed: Dict[str, int]):
    """The move an equality makes: (fixed side, moving side, pivot, moved
    point), or None.  The moved point is an endpoint or arm of one side
    that the other side does not name; the first choice is the right
    side's second point, and a point earlier hypotheses placed is chosen
    last (a moved one after a named one)."""
    best, best_rank = None, 3
    for fixed, side in ((left, right), (right, left)):
        for c, d in ((side[-2], side[-1]), (side[-1], side[-2])):
            rank = placed.get(d, 0)
            if rank < best_rank and d not in fixed[1:]:
                if rank == 0:
                    return fixed, side, c, d
                best, best_rank = (fixed, side, c, d), rank
    return best


def _copy_arms(left: AngleTerm, right: AngleTerm, earlier: Sequence[Fact], placed):
    """For two disjoint triangles whose points are all placed, the right
    angle's arms in the order that matches the left angle's arm1 and arm2,
    when copying the left triangle onto the right one keeps every earlier
    hypothesis that names a moved arm: each must be an equality between
    parts the copy matches, or the right triangle's own noncollinearity.
    None otherwise."""
    (_, v, a, b), (_, w, c, d) = left, right
    if len({v, a, b, w, c, d}) < 6 or not placed.keys() >= {v, a, b, w, c, d}:
        return None

    def matched(x, y, image) -> bool:  # the copy carries term x onto term y
        mapped = [image.get(n) for n in x[1:]]
        return (len(mapped) == 2 or mapped[0] == y[1]) and set(mapped) == set(y[1:])

    def kept(fact, image) -> bool:
        names = fact_point_names(fact)
        if c not in names and d not in names:
            return True
        if isinstance(fact, NonCollinear):
            return set(names) == {w, c, d}
        return isinstance(fact, (SegEq, AngEq)) and (
            matched(fact.left, fact.right, image) or matched(fact.right, fact.left, image)
        )

    for arms in ((c, d), (d, c)):
        image = {v: w, a: arms[0], b: arms[1]}
        if all(kept(fact, image) for fact in earlier):
            return arms
    return None


def _constructive_pass(
    model: Model, pts: Dict[str, Vec], fact: Fact, rng: Random, tol: ToleranceProfile,
    placed: Dict[str, int], earlier: Sequence[Fact],
) -> None:
    """Adjust point placements so `fact` holds by construction, and record
    in `placed` the points it named (1) and moved (2).

    A betweenness puts its mid on the segment.  A segment equality moves a
    point along the geodesic from its pivot and an angle equality turns an
    arm about its vertex; each moves a point no earlier hypothesis named if
    it can, else one none moved (a segment equality can slide an outer
    point of a betweenness along the ray from its mid), taking it from the
    other side when one side is fully placed.  An angle equality copies one
    triangle onto another when _copy_arms finds a copy that keeps the
    `earlier` hypotheses.  A hypothesis undone by a later one is left to
    rejection within tolerance: a Between accepted that way can be about
    sqrt(eq_tol) off straight, and angle equalities measured against it
    fail.  May raise DegenerateDirection/DomainError; callers treat that
    as a failed attempt."""
    moved: Tuple[str, ...] = ()
    if isinstance(fact, SegEq):
        move = _moves(fact.left, fact.right, placed)
        if move is not None:
            fixed, _, c, d = move
            length = model.dist(pts[fixed.a], pts[fixed.b])
            pts[d] = model.exp(pts[c], model.unit_tangent(pts[c], pts[d]), length)
            moved = (d,)
    elif isinstance(fact, AngEq):
        apex = _base_angle_apex(fact.left, fact.right)
        if apex is not None and apex[1] not in placed and apex[2] not in placed:
            a, v, w = apex
            leg = rng.uniform(2.0 * model.min_separation, model.max_leg)
            opening = rng.uniform(2.0 * MIN_ANGLE, math.pi - 2.0 * MIN_ANGLE)
            u = model.random_tangent(rng, pts[a])
            pts[v] = model.exp(pts[a], u, leg)
            pts[w] = model.exp(pts[a], model.rotate_tangent(pts[a], u, opening), leg)
            moved = (v, w)
        else:
            arms = _copy_arms(fact.left, fact.right, earlier, placed)
            move = (fact.left, fact.right) + arms if arms else _moves(fact.left, fact.right, placed)
            if move is not None:
                (_, v, a, b), (_, w, _, _), c, d = move
                theta = angle_at(model, pts[a], pts[v], pts[b], tol)
                u = model.unit_tangent(pts[w], pts[c])
                if arms is not None:  # c to |v a| along its ray, d turned at |v b|
                    pts[c] = model.exp(pts[w], u, model.dist(pts[v], pts[a]))
                    keep, moved = model.dist(pts[v], pts[b]), (c, d)
                else:
                    keep, moved = model.dist(pts[w], pts[d]), (d,)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                pts[d] = model.exp(pts[w], model.rotate_tangent(pts[w], u, sign * theta), keep)
    elif isinstance(fact, Between):
        a, b = pts[fact.a], pts[fact.b]
        t = rng.uniform(0.15, 0.85)
        pts[fact.mid] = model.point_toward(a, b, t * model.dist(a, b))
        moved = (fact.mid,)
    else:
        return  # SegLt/AngLt/NonCollinear are left to rejection + guards
    for name in fact_point_names(fact):
        placed.setdefault(name, 1)
    for name in moved:
        placed[name] = 2


def _guarded(
    model: Model, pts: Dict[str, Vec], statement_like: Sequence[Fact], tol: ToleranceProfile
) -> Optional[Trial]:
    """The attempt's table, every pair measured, when the points pass the
    separation, region and clear-angle guards and every fact holds; None
    otherwise."""
    trial = Trial(model, pts)
    dists, dist = trial.dists, model.dist
    items = sorted(pts.items())
    sep, spread = model.min_separation, model.max_spread
    for i, (n, p) in enumerate(items):
        for m, q in items[i + 1 :]:
            d = dists[n, m] = dists[m, n] = dist(p, q)
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
    if all(eval_fact(model, trial, f, tol) for f in statement_like):
        return trial
    return None


def _attempt(
    model: Model, points: Sequence[str], hyps: Sequence[Fact], rng: Random,
    tol: ToleranceProfile, line: Sequence[str] = (),
) -> Optional[Trial]:
    """One sampling attempt: random points, the constructive passes in
    hypothesis order, then the guards; None when it is rejected.  A `line`
    (p, q, x, y) moves p and q onto the geodesic through x and y, at signed
    distances from x on both sides, before the guards."""
    pts: Dict[str, Vec] = {name: model.random_point(rng) for name in points}
    placed: Dict[str, int] = {}
    try:
        for i, fact in enumerate(hyps):
            _constructive_pass(model, pts, fact, rng, tol, placed, hyps[:i])
        if line:
            p, q, x, y = line
            u = model.unit_tangent(pts[x], pts[y])
            for name in (p, q):
                pts[name] = model.exp(pts[x], u, rng.uniform(-model.max_leg, model.max_leg))
    except (DegenerateDirection, DomainError, DegenerateAngle):
        return None
    return _guarded(model, pts, hyps, tol)


def _sample(
    model: Model, points: Sequence[str], hyps: Sequence[Fact], seed,
    tol: ToleranceProfile, line: Sequence[str] = (),
) -> Optional[Trial]:
    """The first accepted of 1000 seeded attempts, or None."""
    for attempt in range(_MAX_ATTEMPTS):
        trial = _attempt(model, points, hyps, Random(f"{seed}:{attempt}"), tol, line)
        if trial is not None:
            return trial
    return None


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
    hyps = [fact for _, fact in statement.hypotheses]
    trial = _sample(model, statement.points, hyps, seed, tol or tolerance_for(model))
    if trial is None:
        raise SamplingFailed(f"{statement.name}: no instance in {_MAX_ATTEMPTS} attempts")
    return trial


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

    def record(self, trial: int, instance: Trial, failed: Optional[str]) -> None:
        """Count one evaluated trial; `failed` describes the first fact
        that did not hold, and the first such trial is kept."""
        self.trials_run += 1
        if failed is not None:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = Counterexample(
                    trial=trial, fact=failed, points=tuple(sorted(instance.pts.items()))
                )


def _first_false(
    model: Model, instance: Trial, facts: Sequence[Fact], tol: ToleranceProfile
) -> Optional[str]:
    """The first fact that does not hold in the instance (a missing point
    makes it false), printed; None when all hold."""
    for fact in facts:
        try:
            holds = eval_fact(model, instance, fact, tol)
        except MissingPoint:
            holds = False
        if not holds:
            return repr(fact)
    return None


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
        report.record(k, instance, _first_false(model, instance, facts, tol))
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
        holds, detail = conj.evaluate(instance, points, tol)
        report.record(k, instance, None if holds else detail)
    return report


# ---------------------------------------------------------------------------
# Rule-level soundness harness


def check_rule_soundness(
    model: Model,
    rule_id: str,
    trials: int = 1000,
    seed=0,
    tol: Optional[ToleranceProfile] = None,
) -> ModelCheckReport:
    """Sample the rule's premises and side conditions as a statement's
    hypotheses, like sample_instance, and measure its conclusions.  A rule
    whose points must share a line has them placed on it in each attempt.
    A contradiction rule, whose premises never hold together, gets one
    attempt per trial.  Trials whose premises cannot be sampled are counted
    as skipped, never as failures; after the first trial that 1000 attempts
    cannot sample, the rest are skipped unsampled."""
    tol = tol or tolerance_for(model)
    schema = RULES[rule_id]
    binding = {var: var for var in schema.variables}
    hyps = schema.instantiate_premises(binding) + tuple(
        non_collinear(*triple) for triple in schema.instantiate_side_conditions(binding)
    )
    conclusions = schema.instantiate_conclusions(binding)
    vacuous = ABSURD in conclusions
    report = ModelCheckReport(model=model.name, trials=trials)
    for k in range(trials):
        key = f"{seed}:{rule_id}:{model.name}:{k}"
        if vacuous:
            trial = _attempt(model, schema.variables, hyps, Random(key), tol)
        else:
            trial = _sample(model, schema.variables, hyps, key, tol, schema.collinear_side)
            if trial is None:
                report.skipped = trials - report.trials_run
                break
        if trial is None:
            report.skipped += 1
            continue
        report.record(k, trial, _first_false(model, trial, conclusions, tol))
    return report
