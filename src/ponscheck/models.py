"""Numeric semantics: facts evaluated in three constant-curvature models.

A theorem that survives the symbolic checker can additionally be tested
extensionally: sample instances of its hypotheses, replay construction
steps with real coordinates, and measure every derived fact.  A sound
derivation produces no failures in any model; a euclidean-only claim
(such as the angle-sum conjecture) fails visibly in the curved models.

Facts are measured through a Plan compiled from them: their distinct
point pairs, their distinct angles and each fact as an opcode over their
indices.  A trial fills one distance list from its Trial's table (the
sampler's guards measure every pair and hand it on), computes each angle
once by the model's law of cosines, Model.cos_angle (the tangent-vector
formulation stays out of the production path as a test oracle), and runs
the opcodes.  The guards, eval_fact, the lemma solver's residual (which
re-measures only the moving point) and the final evaluation run plans,
cached per model and facts (the final ones per model_check).

A check compiles its proof once into a Replay program, so a trial only
samples, replays constructions and case splits, solves the points a lemma
or statement only asserts (bracketed Anderson-Bjorck regula falsi) and
measures the facts that kernel.step_facts derives.  Statements with the
same points and hypotheses draw the same trials, shared through a sample
store (the model command keeps one per model); after a trial that cannot
be sampled, the rest are skipped unsampled.  Such a group draws all its
sampling attempts, trial after trial, from one Random seeded once by the
check's seed, not from one seeded per attempt; a seed reproduces a run of
trials, not a lone trial.
ModelCheckReport.tally counts the trials of every check, skipping those
that raise UnrealizableStep.

Each model's numeric profile (equality tolerance and order margin,
sampling distances and region, working domain) lives on its Model in
geometry; MIN_ANGLE is the one sampling constant shared by all three.
There is one sampler, which the rule soundness harness shares (a rule's
premises and side conditions are its hypotheses); it never copies one
triangle onto another, which would make every sample a congruent pair.
"""

from __future__ import annotations

import collections.abc
import functools
import math
from random import Random
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import check_conjecture
from .geometry import DegenerateDirection, DomainError, Model, Vec
from .kernel import (
    CasesStep,
    ExtendStep,
    LemmaStep,
    RuleStep,
    Step,
    TheoremStatement,
    node,
    step_facts,
)
from .rules import RULES
from .terms import (
    ABSURD,
    AngEq,
    Between,
    DegenerateAngle,
    Fact,
    PointId,
    SegEq,
    between,
    fact_point_names,
    non_collinear,
)


class MissingPoint(Exception):
    pass


class SamplingFailed(Exception):
    pass


class UnrealizableStep(SamplingFailed):
    """A trial that cannot be evaluated: a construction that leaves the
    working domain, a case split inside the tolerance's dead zone, or an
    asserted point the solver cannot place (no carrier, no sign change, a
    degenerate carrier or probe).  The model checks count it as skipped."""


class GeodesicOutOfDomain(UnrealizableStep):
    """A construction walked a geodesic out of the model's working domain."""


_MAX_ATTEMPTS = 1000
# smallest angle a sampled noncollinear triangle may have; an opening the
# sampler prescribes stays twice as far from 0 and pi
MIN_ANGLE = 0.15
# the length of the ray a point slides along, in the model's legs (a longer
# one passes the sphere's antipodes)
_SLIDE_LEGS = 4.0
# the name of that ray's far end, which no script point can have
_RAY_END = " end"
# the fraction of eq_tol within which a guard plan accepts equalities and
# betweenness, so a sample's hypotheses hold well inside the tolerance its
# conclusions are measured at (orders and noncollinearity keep lt_margin)
GUARD_EQ = 1e-2
_CORNERS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))  # angles at a, b, c by sides ab, ac, bc
_FACTS, _BUILD, _LEMMA, _SPLIT = range(4)  # Replay's opcodes


def close(x: float, y: float, eq: float) -> bool:
    """Equal within eq, relative plus absolute (a model's eq_tol)."""
    return abs(x - y) <= eq * (1.0 + max(abs(x), abs(y)))


def less(x: float, y: float, lt: float) -> bool:
    """Smaller by more than the margin lt, scaled as in close (a model's lt_margin)."""
    return x < y - lt * (1.0 + max(abs(x), abs(y)))


# ---------------------------------------------------------------------------
# Measurement


def _angles(cos_angle, d: Sequence[float], sides, eq_tol: float) -> List[float]:
    """For each (i, j, k) of sides, the angle between arms of lengths d[i]
    and d[j] whose far ends are d[k] apart; NaN, for which no comparison
    holds, unless both arms are longer than eq_tol.  The cosine is clamped
    to [-1, 1], a NaN one to -1."""
    acos, nan = math.acos, math.nan
    return [
        acos(c if -1.0 <= (c := cos_angle(d[i], d[j], d[k])) <= 1.0 else 1.0 if c > 1.0 else -1.0)
        if d[i] > eq_tol and d[j] > eq_tol else nan
        for i, j, k in sides
    ]


def angle_at(model: Model, a: Vec, v: Vec, b: Vec) -> float:
    """Angle at vertex v between geodesics toward a and b, in (0, pi),
    via the model's law of cosines."""
    p, q = model.dist(v, a), model.dist(v, b)
    if p <= model.eq_tol or q <= model.eq_tol:
        raise DegenerateAngle(f"arm shorter than tolerance: {p!r}, {q!r}")
    return math.acos(min(1.0, max(-1.0, model.cos_angle(p, q, model.dist(a, b)))))


class Trial(collections.abc.Mapping):
    """One trial's points by name and the table of their pairwise
    distances, each pair measured on first use and stored under both
    orders (dist is bitwise symmetric).  It reads as a mapping from point
    name to coordinates; built on a Trial of the same model it shares that
    Trial's points and table, and placing a point makes a copy."""

    __slots__ = ("model", "pts", "dists")

    def __init__(self, model: Model, pts: Mapping[str, Vec], dists: Optional[dict] = None):
        if isinstance(pts, Trial) and pts.model is model:
            pts, dists = pts.pts, pts.dists
        self.model, self.pts = model, pts if type(pts) is dict else dict(pts)
        self.dists: Dict[Tuple[str, str], float] = {} if dists is None else dists

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

    def measure(self, pairs: Sequence[Tuple[str, str]]) -> List[float]:
        """The pairs' distances, from the table or measured (and not stored);
        NaN where a point is missing."""
        d = list(map(self.dists.get, pairs))
        if None in d:
            pts, dist = self.pts, self.model.dist
            d = [x if x is not None else dist(pts[a], pts[b]) if a in pts and b in pts else math.nan
                 for x, (a, b) in zip(d, pairs)]
        return d

    def with_point(self, name: str, v: Vec) -> "Trial":
        """A copy with the point placed; a reused name moves its point, so
        that point's distances are dropped."""
        if name in self.pts:
            dists = {k: d for k, d in self.dists.items() if name not in k}
        else:
            dists = dict(self.dists)
        return Trial(self.model, {**self.pts, name: v}, dists)


def _sides(x: str, y: str, z: str) -> Tuple[Tuple[str, str], ...]:
    """The pairs x y, x z and y z in name order, for y before z: at vertex
    x, two arms and the opposite side."""
    return (x, y) if x < y else (y, x), (x, z) if x < z else (z, x), (y, z)


_EQ, _LT, _BETWEEN, _NONCOLLINEAR, _FALSE, _CLEAR = range(6)
_OPCODES = {"=s": _EQ, "=a": _EQ, "<s": _LT, "<a": _LT, "between": _BETWEEN,
            "noncollinear": _NONCOLLINEAR, "absurd": _FALSE}


class Plan:
    """Facts compiled for one model: their distinct point pairs (in name
    order), their distinct angles (by vertex and unordered arms; dist and
    cos_angle are bitwise symmetric), each as the pair indices of its two
    arms and opposite side, and each fact as an opcode over value indices:
    the distances, then the angles in reverse order, so angle j is value
    ~j.  A guard plan also keeps the angles of each noncollinearity's
    triangle clear of 0 and pi, in opcodes after the facts'.  Equalities
    and betweenness hold within `eq`, the model's eq_tol (a guard plan's
    GUARD_EQ of it), orders and noncollinearity by `lt`, its lt_margin.
    `build` is the facts in the order the sampler builds them: a guard
    plan's by _build_order, any other's as written."""

    def __init__(self, model: Model, facts: Sequence[Fact], guard=False):
        self.model, self.facts = model, tuple(facts)
        self.eq = GUARD_EQ * model.eq_tol if guard else model.eq_tol
        self.lt = model.lt_margin
        pairs: Dict[Tuple[str, str], int] = {}
        angles: Dict[Tuple[str, ...], int] = {}
        ops, clear = [], []
        for fact in self.facts:
            op = _OPCODES[fact[0]]
            if op == _FALSE:
                ops.append((op,))
            elif op <= _LT and fact[1][0] == "a":  # two angles, by ~ their indices
                ops.append((op, ~angles.setdefault(fact[1], len(angles)),
                            ~angles.setdefault(fact[2], len(angles))))
            else:  # two segments, |mid a|, |mid b|, |a b| of (mid, a, b), or the sides of (a, b, c)
                keys = (fact[1][1:], fact[2][1:]) if op <= _LT else _sides(*fact[1:])
                ops.append((op, *[pairs.setdefault(key, len(pairs)) for key in keys]))
                if guard and op == _NONCOLLINEAR:
                    clear.append((_CLEAR,) + ops[-1][1:])
        self.ops = ops + clear
        self.angles = [[pairs.setdefault(key, len(pairs)) for key in _sides(v, p, q)]
                       for _, v, p, q in reversed(angles)]
        self.pairs = list(pairs)
        self.build = _build_order(self.facts) if guard else self.facts

    def run(self, v: List[float]) -> Optional[int]:
        """Index of the first failing opcode, or None; _EQ and _LT inline close and less."""
        eq, lt = self.eq, self.lt
        for k, o in enumerate(self.ops):
            op = o[0]
            if op <= _LT:  # values are never negative: max(|x|, |y|) is the larger
                x, y = v[o[1]], v[o[2]]
                m = 1.0 + (x if x > y else y)
                holds = abs(x - y) <= eq * m if op == _EQ else x < y - lt * m
            elif op == _BETWEEN:  # an end coinciding with the mid is not between
                x, y, z = v[o[1]], v[o[2]], v[o[3]]
                holds = not (close(x, 0.0, eq) or close(y, 0.0, eq)) and close(x + y, z, eq)
            elif op == _NONCOLLINEAR:  # each side clears the others' sum by the margin
                a, b, c = v[o[1]], v[o[2]], v[o[3]]
                holds = less(c, a + b, lt) and less(b, c + a, lt) and less(a, b + c, lt)
            elif op == _CLEAR:  # a guarded triangle's angles stay clear of 0 and pi
                angles = _angles(self.model.cos_angle, (v[o[1]], v[o[2]], v[o[3]]), _CORNERS, eq)
                holds = all(MIN_ANGLE <= t <= math.pi - MIN_ANGLE for t in angles)
            else:
                holds = False
            if not holds:
                return k
        return None

    def first_false(self, trial: Trial) -> Optional[int]:
        """The index of the first fact (or clear angle) that does not hold
        in the trial, or None; a point the trial lacks makes values NaN."""
        d = trial.measure(self.pairs)
        return self.run(d + _angles(self.model.cos_angle, d, self.angles, self.model.eq_tol))

    def failure(self, trial: Trial) -> Optional[str]:
        """The first fact that does not hold in the trial, printed; None when all hold."""
        k = self.first_false(trial)
        return None if k is None else repr(self.facts[k])


_plan = functools.lru_cache(maxsize=1024)(Plan)  # one compile per distinct arguments


def eval_fact(model: Model, instance: Mapping[str, Vec], fact: Fact) -> bool:
    """Measure one fact, as a one-fact plan, in an instance or a Trial's
    table.  Degenerate angle configurations make angle facts false; a
    missing point raises MissingPoint."""
    trial = Trial(model, instance)
    for name in fact_point_names(fact):
        trial.point(name)
    return Plan(model, (fact,)).first_false(trial) is None


# ---------------------------------------------------------------------------
# Instance sampling


def _base_angle_apex(fact: AngEq) -> Optional[Tuple[PointId, PointId, PointId]]:
    """Detect the two-base-angles-of-one-triangle pattern: angles at v and
    w over the same three points, the third their apex.  Returns (apex, v,
    w)."""
    _, (_, v, a, b), (_, w, c, d) = fact
    if v == w or {v, a, b} != {w, c, d}:
        return None
    return a if b == w else b, v, w


def _build_order(facts: Tuple[Fact, ...]) -> Tuple[Fact, ...]:
    """The facts as written, but the angle equalities that are not one
    triangle's base angles are built together where the last of them or
    of the segment equalities is written: a segment equality built later
    would undo their turns.  An angle at an end of a segment equality goes
    first, so that a second angle of its triangle slides along its arm."""
    ends = {p for f in facts if f[0] == "=s" for p in fact_point_names(f)}
    rank = {i: 1 if ends & {f.left.vertex, f.right.vertex} else 2
            for i, f in enumerate(facts) if f[0] == "=a" and not _base_angle_apex(f)}
    slot = max([i for i, f in enumerate(facts) if f[0] == "=s"] + list(rank), default=0)
    order = sorted(range(len(facts)), key=lambda i: (slot, rank[i]) if i in rank else (i, 0))
    return tuple(facts[i] for i in order)


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


def _slide(fact: AngEq, pivots: Mapping[str, str]) -> Optional[Tuple[str, str]]:
    """A point an earlier angle equality turned about an arm of one of this
    fact's angles, and that arm: (point, arm), or None."""
    for _, *names in (fact.right, fact.left):
        for x in names:
            if pivots.get(x) in names[1:]:
                return x, pivots[x]
    return None


def _constructive_pass(
    model: Model, pts: Dict[str, Vec], fact: Fact, rng: Random, placed: Dict[str, int],
    pivots: Dict[str, str],
) -> None:
    """Adjust point placements so `fact` holds by construction, and record
    in `placed` the points it named (1) and moved (2), and in `pivots` the
    vertex each turn moved a point about.

    A betweenness puts its mid on the segment.  A segment equality moves a
    point along the geodesic from its pivot and an angle equality turns an
    arm about its vertex; each moves a point no earlier hypothesis named if
    it can, else one none moved (a segment equality can slide an outer
    point of a betweenness along the ray from its mid), taking it from the
    other side when one side is fully placed.  A point an earlier turn
    moved about an arm of this angle slides along its ray from that arm
    until the angle holds, keeping the earlier angle.  A hypothesis undone
    by a later one is left to the guard, which accepts a gap of at most
    GUARD_EQ * eq_tol (a Between so accepted can be about
    sqrt(GUARD_EQ * eq_tol) off straight).  May raise
    DegenerateDirection, DomainError, DegenerateAngle or UnrealizableStep;
    callers treat that as a failed attempt."""
    moved: Tuple[str, ...] = ()
    if isinstance(fact, SegEq):
        move = _moves(fact.left, fact.right, placed)
        if move is not None:
            fixed, _, c, d = move
            length = model.dist(pts[fixed.a], pts[fixed.b])
            pts[d] = model.exp(pts[c], model.unit_tangent(pts[c], pts[d]), length)
            moved = (d,)
    elif isinstance(fact, AngEq):
        apex = _base_angle_apex(fact)
        if apex is not None and apex[1] not in placed and apex[2] not in placed:
            a, v, w = apex
            leg = rng.uniform(2.0 * model.min_separation, model.max_leg)
            opening = rng.uniform(2.0 * MIN_ANGLE, math.pi - 2.0 * MIN_ANGLE)
            u = model.unit_tangent(pts[a], pts[v])
            pts[v] = model.exp(pts[a], u, leg)
            pts[w] = model.exp(pts[a], model.rotate_tangent(pts[a], u, opening), leg)
            moved = (v, w)
        elif (slide := _slide(fact, pivots)) is not None:
            x, u = slide
            end = model.exp(pts[u], model.unit_tangent(pts[u], pts[x]), _SLIDE_LEGS * model.max_leg)
            carrier = between(x, u, _RAY_END)
            pts[x] = solve_introduced_point(model, {**pts, _RAY_END: end}, x, (carrier, fact))
            moved = (x,)
        else:
            move = _moves(fact.left, fact.right, placed)
            if move is not None:
                (_, v, a, b), (_, w, _, _), c, d = move
                theta = angle_at(model, pts[a], pts[v], pts[b])
                u = model.unit_tangent(pts[w], pts[c])
                sign = 1.0 if rng.random() < 0.5 else -1.0
                turned = model.rotate_tangent(pts[w], u, sign * theta)
                pts[d] = model.exp(pts[w], turned, model.dist(pts[w], pts[d]))
                moved, pivots[d] = (d,), w
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


def _guarded(model: Model, pts: Dict[str, Vec], plan: Plan) -> Optional[Trial]:
    """The attempt's table, every pair measured, when the points pass the
    separation and region guards and the guard plan holds; None
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
    return trial if plan.first_false(trial) is None else None


def _attempt(plan: Plan, points: Sequence[str], rng: Random, line=()) -> Optional[Trial]:
    """One sampling attempt for a guard plan's hypotheses: random points,
    the constructive passes in the plan's build order, then the guards;
    None when it is rejected.  A `line` (p, q, x, y) moves p and q onto the
    geodesic through x and y, at signed distances from x on both sides,
    before the guards."""
    model = plan.model
    pts: Dict[str, Vec] = {name: model.random_point(rng) for name in points}
    placed: Dict[str, int] = {}
    pivots: Dict[str, str] = {}
    try:
        for fact in plan.build:
            _constructive_pass(model, pts, fact, rng, placed, pivots)
        if line:
            p, q, x, y = line
            u = model.unit_tangent(pts[x], pts[y])
            for name in (p, q):
                pts[name] = model.exp(pts[x], u, rng.uniform(-model.max_leg, model.max_leg))
    except (DegenerateDirection, DomainError, DegenerateAngle, UnrealizableStep):
        return None
    return _guarded(model, pts, plan)


def _sample(plan: Plan, points: Sequence[str], rng: Random, line: Sequence[str] = ()) -> Optional[Trial]:
    """The first accepted of up to 1000 attempts, drawn in turn from rng's
    stream (each one goes on where the last stopped), or None."""
    for _ in range(_MAX_ATTEMPTS):
        trial = _attempt(plan, points, rng, line)
        if trial is not None:
            return trial
    return None


def sample_instance(model: Model, statement: TheoremStatement, seed) -> Trial:
    """Deterministically sample coordinates satisfying the statement's
    hypotheses: constructive placement where a hypothesis shape is
    recognized, rejection sampling plus nondegeneracy guards otherwise.
    `seed` is either a seed, which starts a fresh stream (equal seeds give
    equal samples), or a Random whose stream the attempts continue (each
    call on it draws a new sample).  Returns the accepted attempt's Trial,
    its distance table filled by the guards.  Raises SamplingFailed after
    1000 attempts."""
    rng = seed if isinstance(seed, Random) else Random(f"{seed}")
    hyps = tuple(fact for _, fact in statement.hypotheses)
    trial = _sample(_plan(model, hyps, True), statement.points, rng)
    if trial is None:
        raise SamplingFailed(f"{statement.name}: no instance in {_MAX_ATTEMPTS} attempts")
    return trial


# ---------------------------------------------------------------------------
# Construction realization


def realize_construction(model: Model, instance: Mapping[PointId, Vec], step) -> Trial:
    """Place the fresh point of an extend/layoff step; returns a new
    instance.  Walking off the model's working domain (hemisphere, disk
    rim) raises GeodesicOutOfDomain."""
    t = Trial(model, instance)
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


@functools.lru_cache(maxsize=1024)
def _solver_setup(model: Model, fresh: str, conclusions: Tuple[Fact, ...]):
    """The last carrier of fresh and the plan of the last angle equality
    naming it (None without one), each plan pair measured once (None if it
    moves), and (index, other point) of those that move with the probe."""
    last = conclusions[::-1]
    carrier = next((f for f in last if isinstance(f, Between) and f.mid == fresh), None)
    target = next((f for f in last if isinstance(f, AngEq) and fresh in fact_point_names(f)), None)
    plan = _plan(model, (target,)) if target else None
    pairs = plan.pairs if plan else ()
    return (carrier, plan, tuple(None if fresh in pair else pair for pair in pairs),
            tuple((i, q if p == fresh else p) for i, (p, q) in enumerate(pairs) if fresh in (p, q)))


def solve_introduced_point(
    model: Model, instance: Mapping[PointId, Vec], fresh: PointId, conclusions: Sequence[Fact]
) -> Vec:
    """Realize a point that a lemma (or stated theorem) merely asserts:
    supported pattern is Between(fresh; {p, q}) plus at most one angle
    equality mentioning fresh.  The angle residual is bracketed by the two
    ends of the geodesic from p to q and its root found by regula falsi;
    an end kept twice in a row has its value scaled by Anderson and
    Bjorck's factor 1 - f(new) / f(replaced) (BIT 13, 1973), or halved
    where that is not positive.  Without an angle equality the point is
    the midpoint.  UnrealizableStep without a carrier or a sign change, or
    when the carrier's ends coincide or a probe's angle is degenerate."""
    carrier, plan, fixed, moving = _solver_setup(model, fresh, tuple(conclusions))
    if carrier is None:
        raise UnrealizableStep(f"no betweenness carrier for introduced point {fresh}")
    inst = Trial(model, instance)
    a, b = inst.point(carrier.a), inst.point(carrier.b)
    span = inst.dist(carrier.a, carrier.b)
    try:
        u = model.unit_tangent(a, b)
    except DegenerateDirection as exc:
        raise UnrealizableStep(f"degenerate carrier for {fresh}: {exc}") from exc

    if plan is None:
        return model.exp(a, u, 0.5 * span)

    (_, left, right), = plan.ops
    exp, dist, cos_angle, angles = model.exp, model.dist, model.cos_angle, plan.angles
    d = [0.0 if pair is None else inst.dist(*pair) for pair in fixed]
    moving = [(i, inst.point(p)) for i, p in moving]
    probe: Vec = ()

    def residual(t: float) -> float:
        nonlocal probe
        probe = exp(a, u, t * span)
        for i, other in moving:
            d[i] = dist(probe, other)
        measured = _angles(cos_angle, d, angles, model.eq_tol)  # angle j is ~j here too
        r = measured[left] - measured[right]
        if r != r:
            raise UnrealizableStep(f"degenerate angle probing {fresh}")
        return r

    lo, hi = 1e-6, 1.0 - 1e-6
    flo, fhi = residual(lo), residual(hi)
    if fhi == 0.0:  # the probe is at hi; a zero at lo is the first step's root
        return probe
    if not flo * fhi <= 0.0:  # no sign change, or a NaN residual
        raise UnrealizableStep(f"no sign change bracketing {fresh}")
    eps = _SOLVE_MARGIN * model.eq_tol
    side = 0  # end the previous step replaced: -1 lo, +1 hi
    for _ in range(_SOLVE_MAX_STEPS):
        t = (lo * fhi - hi * flo) / (fhi - flo)
        ft = residual(t)
        if (ft < 0) == (flo < 0):
            if side == -1:  # hi kept twice: scale it by how far the new value fell
                m = 1.0 - ft / flo
                fhi *= m if m > 0.0 else 0.5
            lo, flo, side = t, ft, -1
        else:
            if side == 1:
                m = 1.0 - ft / fhi
                flo *= m if m > 0.0 else 0.5
            hi, fhi, side = t, ft, 1
        if abs(ft) <= eps or (hi - lo) * span <= eps:
            break
    return probe


# ---------------------------------------------------------------------------
# Model checking


@node
class Counterexample(NamedTuple):
    trial: int
    fact: str
    points: Tuple[Tuple[str, Vec], ...]  # name-sorted coordinates


class ModelCheckReport:
    __slots__ = ("model", "trials", "trials_run", "failures", "skipped", "first_counterexample")

    def __init__(self, model: str, trials: int) -> None:
        self.model, self.trials = model, trials  # trials requested
        self.trials_run = self.failures = self.skipped = 0  # trials_run: fully evaluated
        self.first_counterexample: Optional[Counterexample] = None

    def as_dict(self) -> Dict[str, object]:
        keys = ("trials", "trials_run", "failures", "skipped")
        d: Dict[str, object] = {k: getattr(self, k) for k in keys}
        ce = self.first_counterexample
        if ce is not None:
            points = {n: list(v) for n, v in ce.points}
            d["first_counterexample"] = {"trial": ce.trial, "fact": ce.fact, "points": points}
        return d

    def tally(self, draws, measure) -> "ModelCheckReport":
        """Count each draw (k, trial): skipped when the trial is None (not
        sampled) or measure(trial) raises UnrealizableStep, else evaluated.
        measure returns the first fact that did not hold, printed (None
        when all hold), and the trial it was measured in; the first such
        trial is kept."""
        for k, trial in draws:
            try:
                failed, at = (None, None) if trial is None else measure(trial)
            except UnrealizableStep:
                trial = None
            if trial is None:
                self.skipped += 1
                continue
            self.trials_run += 1
            if failed is not None:
                self.failures += 1
                if self.first_counterexample is None:
                    points = tuple(sorted(at.pts.items()))
                    self.first_counterexample = Counterexample(k, failed, points)
        return self


def _place_asserted(model: Model, instance: Trial, names, facts) -> Trial:
    """The instance with each named point, which the facts only assert,
    placed by solve_introduced_point; a reused name moves its point."""
    for name in names:
        point = solve_introduced_point(model, instance, name, facts)
        instance = instance.with_point(name, point)
    return instance


class Replay:
    """Accepted proof steps compiled into (opcode, step, facts) entries, a
    run of rule steps into one tuple of their facts; a case branch is
    compiled when a trial first takes it.  `run` realizes constructions,
    solves lemma-introduced points, takes the numerically true branch and
    collects the facts to measure in `out`; before a step moves a point a
    closed branch named, `cuts` gets the number of facts collected and the
    trial to measure them in.  UnrealizableStep for a trial it cannot replay."""

    def __init__(self, model: Model, steps: Sequence[Step], registry):
        self.model, self.registry = model, registry
        self.ops = self.compile(steps)

    def compile(self, steps: Sequence[Step]) -> List[tuple]:
        ops, run = [], ()
        for step in steps:
            if isinstance(step, RuleStep):
                run += step_facts(step, self.registry)
                continue
            ops += [(_FACTS, None, run)] if run else []
            op = _SPLIT if isinstance(step, CasesStep) else _LEMMA if isinstance(step, LemmaStep) else _BUILD
            ops.append((op, step, {} if op == _SPLIT else step_facts(step, self.registry)))
            run = ()
        return ops + [(_FACTS, None, run)] if run else ops

    def run(self, instance: Trial, out: List[Tuple[Fact, ...]], cuts: List[Tuple[int, Trial]],
            ops: Optional[List[tuple]] = None) -> Trial:
        eq, lt = self.model.eq_tol, self.model.lt_margin
        for op, step, facts in self.ops if ops is None else ops:
            if op == _SPLIT:  # facts: the program of each branch taken so far, by kind
                dl, dr = instance.dist(*step.left), instance.dist(*step.right)
                kind = ("eq" if close(dl, dr, eq) else "lt" if less(dl, dr, lt)
                        else "gt" if less(dr, dl, lt) else "")
                if not kind:
                    raise UnrealizableStep("segment comparison inside tolerance dead zone")
                if kind not in facts:
                    facts[kind] = self.compile(next(b for b in step.branches if b.kind == kind).steps)
                instance = self.run(instance, out, cuts, facts[kind])
                continue
            if op != _FACTS:
                fresh = step.fresh if op == _LEMMA else (step.fresh,)
                if any(name in instance.pts for name in fresh):
                    cuts.append((len(out), instance))
                if op == _BUILD:
                    instance = realize_construction(self.model, instance, step)
                else:
                    instance = _place_asserted(self.model, instance, fresh, facts)
            out.append(facts)
        return instance


def _until_unsampled(trials: int, draw: Callable[[int], Optional[Trial]]):
    """(k, draw(k)) per trial, None where sampling failed; after that, None without sampling."""
    failed = False
    for k in range(trials):
        trial = None if failed else draw(k)
        failed = trial is None
        yield k, trial


class _Drawn(dict):
    """One draw key's trials by index, beside the stream they are drawn from."""

    __slots__ = ("rng",)


def _draws(model: Model, statement: TheoremStatement, trials: int, seed, samples):
    """The statement's trials, as _until_unsampled yields them.  Trials of
    one draw key (model, points, hypotheses and seed; a with_eq_tol copy is
    a model of its own) come in order from one stream, seeded when the key
    is first drawn: trial k goes on where trial k-1 stopped.  A sample
    store (a dict, key -> {k: Trial}) shares the draws and the stream among
    statements with the same key, so a later check goes on from the last
    trial drawn and reports what fresh draws would; a stored Trial's points
    never change."""
    key = (model, statement.points, tuple(f for _, f in statement.hypotheses), seed)
    store = samples if samples is not None else {}
    drawn = store.get(key)
    if drawn is None:
        drawn = store[key] = _Drawn()
        drawn.rng = Random(f"{seed}")

    def draw(k: int) -> Optional[Trial]:
        if k not in drawn:
            try:
                drawn[k] = sample_instance(model, statement, drawn.rng)
            except SamplingFailed:
                drawn[k] = None
        return drawn[k]

    return _until_unsampled(trials, draw)


def model_check(
    model: Model, statement: TheoremStatement, steps: Sequence[Step] = (), trials: int = 1000,
    seed=0, registry: Optional[Mapping[str, TheoremStatement]] = None, samples: Optional[dict] = None,
) -> ModelCheckReport:
    """Sample instances of the hypotheses and measure every derived fact
    plus the statement's conclusions, replaying `steps`, which
    kernel.check_proof must have accepted.  Identical seeds give identical
    reports; unsatisfiable or unrealizable trials count as skipped.  Checks
    given the same `samples` dict share the draws of statements with the
    same points and hypotheses and report what fresh draws would."""
    registry = registry or {}
    report = ModelCheckReport(model=model.name, trials=trials)
    plans: Dict[Tuple[int, ...], Plan] = {}  # by the ids of the measured facts' tuples
    replay = Replay(model, steps, registry)

    def measure(instance: Trial) -> Tuple[Optional[str], Trial]:
        walked, cuts = [], []
        instance = replay.run(instance, walked, cuts)
        asserted = [name for name in statement.introduced if name not in instance.pts]
        instance = _place_asserted(model, instance, asserted, statement.conclusions)
        walked.append(statement.conclusions)
        cuts.append((len(walked), instance))
        start = 0
        for end, at in cuts:  # each run of facts on the trial it was walked in
            key = tuple(map(id, walked[start:end]))
            if key not in plans:
                plans[key] = Plan(model, [f for part in walked[start:end] for f in part])
            failed = plans[key].failure(at)
            if failed is not None:
                break
            start = end
        return failed, at

    return report.tally(_draws(model, statement, trials, seed, samples), measure)


# ---------------------------------------------------------------------------
# Built-in numeric conjectures


def _angle_sum_pi(t: Trial, names: Sequence[str]) -> Tuple[bool, str]:
    """Whether the triangle at the named points has angle sum pi, and what
    was measured, for a counterexample to say."""
    a, b, c = names
    sides = t.measure(((a, b), (a, c), (b, c)))
    at_a, at_b, at_c = _angles(t.model.cos_angle, sides, _CORNERS, t.model.eq_tol)
    total = at_a + at_b + at_c
    return close(total, math.pi, t.model.eq_tol), f"angle sum {total!r} vs pi"


# each conjecture's measure of a trial at the named points: (holds, detail)
BUILTIN_CONJECTURES = {"angle_sum_pi": _angle_sum_pi}


def conjecture_statement(name: str, points: Sequence[str]) -> TheoremStatement:
    """Sampling harness for a conjecture: bare points constrained to a
    nondegenerate triangle on the first three."""
    check_conjecture(name, points)
    return TheoremStatement(
        name=name,
        points=tuple(points),
        hypotheses=(("nondeg", non_collinear(*points[:3])),),
        conclusions=(),
    )


def model_check_conjecture(
    model: Model, name: str, points: Sequence[str], trials: int = 1000, seed=0, samples: Optional[dict] = None
) -> ModelCheckReport:
    statement = conjecture_statement(name, points)
    evaluate = BUILTIN_CONJECTURES[name]
    report = ModelCheckReport(model=model.name, trials=trials)

    def measure(instance: Trial) -> Tuple[Optional[str], Trial]:
        holds, detail = evaluate(instance, points)
        return None if holds else detail, instance

    return report.tally(_draws(model, statement, trials, seed, samples), measure)


# ---------------------------------------------------------------------------
# Rule-level soundness harness


def check_rule_soundness(model: Model, rule_id: str, trials: int = 1000, seed=0) -> ModelCheckReport:
    """Sample the rule's premises and side conditions as a statement's
    hypotheses, like sample_instance (the sample is built from the
    hypotheses alone, so a conclusion holds only where the rule is
    sound), and measure its conclusions; the schema's own facts, over its
    variable names, are the statement.  A rule whose points must share a
    line has them placed on it in each attempt.  A contradiction rule,
    whose premises never hold together, gets one attempt per trial.  All
    of a call's attempts are drawn in turn from one stream, seeded by the
    seed, the rule and the model.
    Trials whose premises cannot be sampled are counted as skipped, never
    as failures; after the first trial that 1000 attempts cannot sample,
    the rest are skipped unsampled."""
    schema = RULES[rule_id]
    hyps = schema.premises + tuple(non_collinear(*triple) for triple in schema.side_conditions)
    conclusions = Plan(model, schema.conclusions)
    guard = Plan(model, hyps, guard=True)
    points, line = schema.variables, schema.collinear_side
    rng = Random(f"{seed}:{rule_id}:{model.name}")
    if ABSURD in conclusions.facts:
        draws = ((k, _attempt(guard, points, rng)) for k in range(trials))
    else:
        draws = _until_unsampled(trials, lambda k: _sample(guard, points, rng, line))
    report = ModelCheckReport(model=model.name, trials=trials)
    return report.tally(draws, lambda trial: (conclusions.failure(trial), trial))
