"""Numeric layer: measurement, sampling, construction replay, and the
divergence of the curved models on euclidean-only claims."""

import itertools
import math
import re
from collections import Counter
from functools import partial
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import ponscheck
from oracles import tangent_angle
from ponscheck import CONJECTURE_ARITIES, kernel, models
from ponscheck.cli import main
from ponscheck.corpus import PROOF_FILENAMES, load_text
from ponscheck.elaborate import collect_statements, elaborate_script
from ponscheck.geometry import EUCLIDEAN, MODELS, POINCARE, SPHERE
from ponscheck.kernel import CasesStep, ExtendStep, LayoffStep, TheoremStatement, check_proof
from ponscheck.models import (
    BUILTIN_CONJECTURES,
    GeodesicOutOfDomain,
    MissingPoint,
    SamplingFailed,
    UnrealizableStep,
    angle_at,
    check_rule_soundness,
    close,
    eval_fact,
    less,
    model_check,
    model_check_conjecture,
    realize_construction,
    sample_instance,
    solve_introduced_point,
)
from ponscheck.rules import RULES, RuleSchema
from ponscheck.script import parse
from ponscheck.terms import (
    ABSURD,
    DegenerateAngle,
    PointId,
    ang_eq,
    ang_lt,
    angle,
    between,
    fact_point_names,
    non_collinear,
    seg_eq,
    seg_lt,
    segment,
)

A, B, C, D, H = (PointId(n) for n in "ABCDH")

ORACLE_TOL = {"euclidean": 1e-9, "poincare": 1e-7, "sphere": 1e-7}


def _statement(points, hypotheses, conclusions, introduced=()):
    return TheoremStatement(
        name="t",
        points=points,
        hypotheses=hypotheses,
        conclusions=conclusions,
        introduced=introduced,
    )


def _isosceles_statement():
    return _statement(
        ("A", "B", "C"),
        (
            ("h1", seg_eq(segment(A, B), segment(A, C))),
            ("h2", non_collinear(A, B, C)),
        ),
        (ang_eq(angle(A, B, C), angle(A, C, B)),),
    )


def _converse_statement():
    return _statement(
        ("A", "B", "C"),
        (
            ("h1", ang_eq(angle(A, B, C), angle(A, C, B))),
            ("h2", non_collinear(A, B, C)),
        ),
        (seg_eq(segment(A, B), segment(A, C)),),
    )


# ---------------------------------------------------------------------------
# Tolerances


def test_tolerance_profiles():
    assert EUCLIDEAN.eq_tol == 1e-9
    assert POINCARE.eq_tol == 1e-7
    assert SPHERE.eq_tol == 1e-7
    assert POINCARE.with_eq_tol(1e-6).lt_margin == pytest.approx(1e-5)
    assert POINCARE.eq_tol == 1e-7


def test_close_and_less_are_relative():
    eq, lt = EUCLIDEAN.eq_tol, EUCLIDEAN.lt_margin
    # absolute floor near zero
    assert close(0.0, 5e-10, eq)
    assert not close(0.0, 5e-9, eq)
    # scales with magnitude
    assert close(1e9, 1e9 + 0.5, eq)
    assert less(1.0, 2.0, lt)
    assert not less(2.0, 1.0, lt)
    # dead zone between close and less
    assert not less(1.0, 1.0 + 5e-9, lt)
    assert not close(1.0, 1.0 + 5e-9, eq)


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_with_eq_tol_is_a_new_model_of_the_same_class(model):
    """Only the tolerance and the margin drawn from it differ; the shared
    model keeps its own."""
    eq_tol = model.eq_tol
    tuned = model.with_eq_tol(1e-3)
    assert tuned is not model and type(tuned) is type(model)
    assert vars(tuned) == {**vars(model), "eq_tol": 1e-3}
    assert (tuned.eq_tol, tuned.lt_margin) == (1e-3, 10.0 * 1e-3)
    assert (model.eq_tol, model.lt_margin) == (eq_tol, 10.0 * eq_tol)


# ---------------------------------------------------------------------------
# Angle measurement


def test_angle_frozen_values_euclidean():
    got = angle_at(EUCLIDEAN, (3.0, 0.0), (0.0, 0.0), (2.0, 3.0))
    assert got == pytest.approx(math.atan2(3.0, 2.0), abs=1e-12)
    assert angle_at(EUCLIDEAN, (1.0, 0.0), (0.0, 0.0), (0.0, 1.0)) == pytest.approx(
        math.pi / 2.0, abs=1e-12
    )


def test_right_angles_in_curved_models():
    # conformal at the disk centre, so the axes meet at a right angle
    got = angle_at(POINCARE, (0.3, 0.0), (0.0, 0.0), (0.0, 0.4))
    assert got == pytest.approx(math.pi / 2.0, abs=1e-12)
    # octant corner on the sphere
    got = angle_at(SPHERE, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    assert got == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_angle_at_degenerate_arm_raises():
    with pytest.raises(DegenerateAngle):
        angle_at(EUCLIDEAN, (0.0, 0.0), (0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_angle_at_agrees_with_tangent_oracle(model):
    rng = Random(f"angle-oracle:{model.name}")
    checked = 0
    while checked < 100:
        a = model.random_point(rng)
        v = model.random_point(rng)
        b = model.random_point(rng)
        if min(model.dist(v, a), model.dist(v, b), model.dist(a, b)) < 1e-2:
            continue
        got = angle_at(model, a, v, b)
        want = tangent_angle(model, a, v, b)
        assert got == pytest.approx(want, abs=ORACLE_TOL[model.name])
        checked += 1


# ---------------------------------------------------------------------------
# Fact evaluation


def test_eval_fact_euclidean_examples():
    inst = {A: (0.0, 0.0), B: (4.0, 0.0), C: (2.0, 3.0)}
    ok = lambda f: eval_fact(EUCLIDEAN, inst, f)
    assert ok(seg_eq(segment(A, C), segment(B, C)))
    assert not ok(seg_eq(segment(A, B), segment(A, C)))
    assert ok(seg_lt(segment(A, C), segment(A, B)))
    assert not ok(seg_lt(segment(A, B), segment(A, C)))
    assert ok(non_collinear(A, B, C))
    assert ok(ang_eq(angle(C, A, B), angle(C, B, A)))
    assert not ok(ABSURD)


def test_eval_fact_betweenness():
    inst = {A: (0.0, 0.0), D: (1.0, 0.0), B: (3.0, 0.0)}
    assert eval_fact(EUCLIDEAN, inst, between(D, A, B))
    assert not eval_fact(EUCLIDEAN, inst, between(A, D, B))
    assert not eval_fact(EUCLIDEAN, inst, non_collinear(A, D, B))
    # endpoint coincidence does not count as betweenness
    inst2 = {A: (0.0, 0.0), D: (0.0, 0.0), B: (3.0, 0.0)}
    assert not eval_fact(EUCLIDEAN, inst2, between(D, A, B))


def test_eval_fact_degenerate_angle_is_false():
    inst = {A: (0.0, 0.0), B: (0.0, 0.0), C: (1.0, 0.0), D: (2.0, 1.0)}
    fact = ang_eq(angle(B, A, C), angle(B, D, C))
    assert not eval_fact(EUCLIDEAN, inst, fact)


def test_eval_fact_missing_point():
    with pytest.raises(MissingPoint):
        eval_fact(EUCLIDEAN, {A: (0.0, 0.0)}, seg_eq(segment(A, B), segment(A, B)))


# ---------------------------------------------------------------------------
# The compiled plan against a fact-by-fact reference


def _reference_first_false(model, instance, facts):
    """The index of the first fact that does not hold, each measured on its
    own from model.dist and angle_at; a missing point or a degenerate angle
    makes a fact false."""

    def dist(a, b):
        return model.dist(instance[a], instance[b])

    def size(term):
        _, v, p, q = term
        return angle_at(model, instance[p], instance[v], instance[q])

    eq, lt = model.eq_tol, model.lt_margin

    for k, fact in enumerate(facts):
        tag = fact[0]
        try:
            if tag in ("=s", "<s"):
                left, right = dist(*fact[1][1:]), dist(*fact[2][1:])
            elif tag in ("=a", "<a"):
                left, right = size(fact[1]), size(fact[2])
            if tag in ("=s", "=a"):
                holds = close(left, right, eq)
            elif tag in ("<s", "<a"):
                holds = less(left, right, lt)
            elif tag == "between":
                _, m, a, b = fact
                am, mb, ab = dist(a, m), dist(m, b), dist(a, b)
                holds = not (close(am, 0.0, eq) or close(mb, 0.0, eq)) and close(am + mb, ab, eq)
            elif tag == "noncollinear":
                _, a, b, c = fact
                holds = all(
                    less(dist(x, y), dist(x, m) + dist(m, y), lt) for m, x, y in ((a, b, c), (b, c, a), (c, a, b))
                )
            else:
                holds = False
        except (KeyError, DegenerateAngle):
            holds = False
        if not holds:
            return k
    return None


_PLAN_NAMES = "ABCDE"


def _distinct(k):
    return st.lists(st.sampled_from(_PLAN_NAMES), min_size=k, max_size=k, unique=True)


_plan_segments = _distinct(2).map(lambda n: segment(*n))
_plan_angles = _distinct(3).map(lambda n: angle(*n))
_plan_facts = st.one_of(
    st.tuples(_plan_segments, _plan_segments).map(lambda t: seg_eq(*t)),
    st.tuples(_plan_segments, _plan_segments).map(lambda t: seg_lt(*t)),
    st.tuples(_plan_angles, _plan_angles).map(lambda t: ang_eq(*t)),
    st.tuples(_plan_angles, _plan_angles).map(lambda t: ang_lt(*t)),
    _distinct(3).map(lambda n: between(*n)),
    _distinct(3).map(lambda n: non_collinear(*n)),
    st.just(ABSURD),
)


@st.composite
def _plan_instances(draw, model):
    """Points for some of the names around an anchor, the first name: some
    on one geodesic through it, so that betweenness and collinearity hold
    and angles at it are straight; some at lengths from it a few tolerance
    margins apart, on both sides of close() (1 margin) and less() (10);
    some on an earlier point, so that angles at them are degenerate; the
    rest anywhere."""
    rng = Random(draw(st.integers(0, 2**32)))
    names = draw(st.lists(st.sampled_from(_PLAN_NAMES), min_size=1, max_size=5, unique=True))
    anchor, length = model.random_point(rng), draw(st.floats(0.2, model.max_leg))
    line = model.unit_tangent(anchor, model.random_point(rng))
    instance = {names[0]: anchor}
    for name in names[1:]:
        how = draw(st.sampled_from(["line", "margin", "same", "free"]))
        if how == "line":
            instance[name] = model.exp(anchor, line, draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0])) * length)
        elif how == "margin":
            margins = draw(st.sampled_from([0.0, 0.5, 1.5, 5.0, 9.0, 11.0, 20.0]))
            t = length + margins * model.eq_tol * (1.0 + length)
            toward = model.unit_tangent(anchor, model.random_point(rng))
            instance[name] = model.exp(anchor, toward, t)
        elif how == "same":
            instance[name] = instance[draw(st.sampled_from(sorted(instance)))]
        else:
            instance[name] = model.random_point(rng)
    return instance


@pytest.mark.parametrize("eq_tol", [None, 1e-3], ids=["default-tol", "tol-1e-3"])
@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plan_first_false_matches_a_fact_by_fact_reference(model, eq_tol, data):
    model = model if eq_tol is None else model.with_eq_tol(eq_tol)
    instance = data.draw(_plan_instances(model))
    facts = data.draw(st.lists(_plan_facts, min_size=1, max_size=8))
    plan = models.Plan(model, facts)
    assert plan.first_false(models.Trial(model, instance)) == _reference_first_false(model, instance, facts)
    for fact in facts:  # each on its own, so that facts after a false one are compared too
        alone = models.Plan(model, (fact,)).first_false(models.Trial(model, instance))
        assert alone == _reference_first_false(model, instance, (fact,))


# ---------------------------------------------------------------------------
# Sampling


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_sampling_is_deterministic(model):
    stmt = _isosceles_statement()
    one = sample_instance(model, stmt, seed="fixed")
    two = sample_instance(model, stmt, seed="fixed")
    assert one == two
    other = sample_instance(model, stmt, seed="different")
    assert other != one


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_sampled_instances_satisfy_hypotheses(model):
    stmt = _isosceles_statement()
    for k in range(25):
        inst = sample_instance(model, stmt, seed=k)
        for _, hyp in stmt.hypotheses:
            assert eval_fact(model, inst, hyp), (model.name, k, hyp)


_TWO_TRIANGLES = {  # the premises of each congruence over triangles A B C and D E F
    "sas": (
        seg_eq(segment("A", "B"), segment("D", "E")),
        seg_eq(segment("A", "C"), segment("D", "F")),
        ang_eq(angle("B", "A", "C"), angle("E", "D", "F")),
    ),
    "asa": (
        ang_eq(angle("A", "B", "C"), angle("D", "E", "F")),
        ang_eq(angle("A", "C", "B"), angle("D", "F", "E")),
        seg_eq(segment("B", "C"), segment("E", "F")),
    ),
    "aas": (
        ang_eq(angle("A", "B", "C"), angle("D", "E", "F")),
        ang_eq(angle("A", "C", "B"), angle("D", "F", "E")),
        seg_eq(segment("A", "B"), segment("D", "E")),
    ),
}


def _assert_samples(model, facts, seeds=30):
    facts = list(facts) + [non_collinear("A", "B", "C"), non_collinear("D", "E", "F")]
    points = sorted({p for fact in facts for p in fact_point_names(fact)})
    stmt = _statement(tuple(points), tuple((f"h{k}", f) for k, f in enumerate(facts)), ())
    for seed in range(seeds):
        inst = sample_instance(model, stmt, seed)
        assert all(eval_fact(model, inst, fact) for fact in facts), seed


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))), ids=str)
@pytest.mark.parametrize("shape", _TWO_TRIANGLES)
@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_congruence_premises_sample_in_every_written_order(model, shape, order):
    """Angle equalities of two triangles are built after the segment
    equalities, however they are written, the one at an end of the equal
    side first; the second angle of a triangle slides the point the first
    one turned along its arm."""
    _assert_samples(model, [_TWO_TRIANGLES[shape][i] for i in order])


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_betweenness_on_the_arms_of_an_earlier_angle_samples(model):
    """A betweenness written after an angle equality puts its mid between
    the arm points the angle's turn placed, so it is built after the turn,
    not deferred before it."""
    _assert_samples(model, (
        ang_eq(angle("A", "B", "C"), angle("D", "E", "F")),
        between("G", "A", "C"),
        between("H", "D", "F"),
    ))


def test_sampling_contradiction_fails_cleanly():
    stmt = _statement(
        ("A", "B", "C", "D"),
        (
            ("h1", seg_lt(segment(A, B), segment(C, D))),
            ("h2", seg_lt(segment(C, D), segment(A, B))),
        ),
        (seg_eq(segment(A, B), segment(A, B)),),
    )
    with pytest.raises(SamplingFailed):
        sample_instance(EUCLIDEAN, stmt, seed=0)


# ---------------------------------------------------------------------------
# Construction replay


def test_extend_euclidean_doubles_the_segment():
    inst = {A: (0.0, 0.0), B: (1.0, 0.0)}
    step = ExtendStep("e1", "A", "B", ("A", "B"), "D")
    out = realize_construction(EUCLIDEAN, inst, step)
    assert out[D] == pytest.approx((2.0, 0.0), abs=1e-12)
    assert A in out and B in out


def test_extend_poincare_is_hyperbolic_not_euclidean():
    inst = {A: (0.0, 0.0), B: (0.5, 0.0)}
    step = ExtendStep("e1", "A", "B", ("A", "B"), "D")
    out = realize_construction(POINCARE, inst, step)
    # doubling ln 3 lands at tanh(ln 3) = 0.8, not at 1.0
    assert out[D][0] == pytest.approx(0.8, abs=1e-9)
    assert out[D][1] == pytest.approx(0.0, abs=1e-12)


def test_extend_off_the_hemisphere_is_rejected():
    a = (0.0, 0.0, 1.0)
    b = (math.sin(0.8), 0.0, math.cos(0.8))
    step = ExtendStep("e1", "A", "B", ("A", "B"), "D")
    with pytest.raises(GeodesicOutOfDomain):
        realize_construction(SPHERE, {A: a, B: b}, step)


RIM = """\
theorem rim
  tags: neutral
  points A B C
  assume h1: noncollinear A B C
  show seg A B == seg A B
  proof
    e1: extend A B by seg A B as E
    f1: extend A E by seg A B as F
    r1: seg A B == seg A B by SEG_REFL[A,B] from refl
  qed from r1
"""


def test_extends_toward_the_disk_rim_are_skipped_not_failed():
    # float precision runs out near the rim: with the whole disk as its
    # domain, 31 of these 1000 trials of a sound proof fail
    (block,) = elaborate_script(parse(RIM))
    rep = model_check(POINCARE, block.statement, block.proof.steps, 1000, seed=0)
    assert rep.failures == 0
    assert 0 < rep.skipped < rep.trials
    bound = math.tanh(POINCARE.max_radius / 2)
    assert POINCARE.in_domain((0.0, bound - 1e-9))
    assert not POINCARE.in_domain((-bound - 1e-9, 0.0))


def test_layoff_places_point_at_cited_length():
    inst = {A: (0.0, 0.0), B: (3.0, 0.0), C: (10.0, 0.0)}
    step = LayoffStep("l1", "C", "A", ("A", "B"), "D", refs=())
    out = realize_construction(EUCLIDEAN, inst, step)
    assert out[D] == pytest.approx((7.0, 0.0), abs=1e-12)


def test_solve_introduced_point_finds_the_bisector_foot():
    inst = {A: (0.0, 3.0), B: (-2.0, 0.0), C: (2.0, 0.0)}
    conclusions = (
        between(H, B, C),
        ang_eq(angle(B, A, H), angle(C, A, H)),
    )
    got = solve_introduced_point(EUCLIDEAN, inst, H, conclusions)
    assert got == pytest.approx((0.0, 0.0), abs=1e-9)


def test_solve_introduced_point_midpoint_fallback():
    inst = {B: (-2.0, 0.0), C: (2.0, 0.0)}
    got = solve_introduced_point(EUCLIDEAN, inst, H, (between(H, B, C),))
    assert got == pytest.approx((0.0, 0.0), abs=1e-12)


BISECTOR_FOOT = (between(H, B, C), ang_eq(angle(B, A, H), angle(C, A, H)))


def _triangles(model, count):
    """Seeded nondegenerate (and in general scalene) triangles A, B, C."""
    stmt = _statement(("A", "B", "C"), (("h", non_collinear(A, B, C)),), ())
    return [sample_instance(model, stmt, f"foot:{k}") for k in range(count)]


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_solver_agrees_with_brentq_on_the_bisector_foot(model):
    for inst in _triangles(model, 40):
        a, b, c = inst[A], inst[B], inst[C]
        span = model.dist(b, c)
        u = model.unit_tangent(b, c)

        def residual(s):
            h = model.exp(b, u, s)
            return angle_at(model, b, a, h) - angle_at(model, c, a, h)

        want = brentq(residual, 1e-6 * span, (1.0 - 1e-6) * span, xtol=1e-14)
        got = solve_introduced_point(model, inst, H, BISECTOR_FOOT)
        assert model.dist(b, got) == pytest.approx(want, abs=1e-9)


def test_solver_without_sign_change_is_unrealizable():
    # angle BAH stays below BAC (about 22.6 deg) while ABC is about 78.7 deg
    inst = {A: (0.0, 5.0), B: (-1.0, 0.0), C: (1.0, 0.0)}
    conclusions = (between(H, B, C), ang_eq(angle(B, A, H), angle(A, B, C)))
    with pytest.raises(UnrealizableStep):
        solve_introduced_point(EUCLIDEAN, inst, H, conclusions)


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_solver_exp_calls_per_solve_are_bounded(model):
    counted = type(model)()  # a fresh instance, so the counter stays local
    calls = []
    exp = counted.exp

    def counting(p, v, t):
        calls.append(t)
        return exp(p, v, t)

    counted.exp = counting
    for inst in _triangles(model, 40):
        del calls[:]
        solve_introduced_point(counted, inst, H, BISECTOR_FOOT)
        assert len(calls) <= 11  # the two bracket ends and at most 9 steps


def _corpus():
    asts = [parse(load_text(fn)) for fn in PROOF_FILENAMES]
    blocks = [b for ast in asts for b in elaborate_script(ast)]
    return blocks, collect_statements(blocks)


def _corpus_block(name):
    blocks, registry = _corpus()
    return next(b for b in blocks if b.name == name), registry


def test_model_check_instantiates_rule_facts_independently_of_trials(monkeypatch):
    block, registry = _corpus_block("bisector_pons")
    calls = []
    instantiate = RuleSchema.instantiate_conclusions

    def counting(self, points):
        calls.append(self.rule_id)
        return instantiate(self, points)

    monkeypatch.setattr(RuleSchema, "instantiate_conclusions", counting)
    counts = []
    for trials in (10, 40):
        del calls[:]
        rep = model_check(
            POINCARE, block.statement, block.proof.steps,
            trials=trials, seed=3, registry=registry,
        )
        assert rep.trials_run == trials
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.fixture
def compiles(monkeypatch):
    """The facts of every Plan compiled from here on, the caches emptied first."""
    models._plan.cache_clear()
    models._solver_setup.cache_clear()
    compiled = []
    init = models.Plan.__init__

    def counting(self, model, facts, *args, **kwargs):
        compiled.append(tuple(facts))
        init(self, model, facts, *args, **kwargs)

    monkeypatch.setattr(models.Plan, "__init__", counting)
    yield compiled
    models._plan.cache_clear()
    models._solver_setup.cache_clear()


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
@pytest.mark.parametrize("name", ["bisector_pons", "bisector_foot"])
def test_model_check_compiles_plans_independently_of_trials(compiles, model, name):
    """The guard plan of the hypotheses and the lemma solver's target plan
    are compiled once per statement, not once per trial."""
    block, registry = _corpus_block(name)
    steps = block.proof.steps if block.proof is not None else ()
    counts = []
    for trials in (5, 50):
        models._plan.cache_clear()
        models._solver_setup.cache_clear()
        del compiles[:]
        rep = model_check(model, block.statement, steps, trials=trials, seed=3, registry=registry)
        assert rep.trials_run > 0
        counts.append(len(compiles))
    assert counts[0] == counts[1] > 0


def test_solver_compiles_nothing_for_conclusions_it_has_seen(compiles):
    first, second = _triangles(EUCLIDEAN, 2)
    del compiles[:]  # the triangles' guard plan
    solve_introduced_point(EUCLIDEAN, first, H, BISECTOR_FOOT)
    assert compiles == [BISECTOR_FOOT[1:]]
    del compiles[:]
    solve_introduced_point(EUCLIDEAN, second, H, list(BISECTOR_FOOT))
    assert compiles == []


def _labels(steps):
    """The steps' labels in order, a case split's replaced by its branches' steps'."""
    labels = []
    for step in steps:
        split = isinstance(step, CasesStep)
        labels += _labels([s for b in step.branches for s in b.steps]) if split else [step.label]
    return labels


@pytest.fixture
def step_fact_calls():
    """A list of the labels of the steps kernel.step_facts was called on,
    and a stand-in for kernel.step_facts that appends to it."""
    calls = []
    step_facts = kernel.step_facts

    def counting(step, reg):
        calls.append(step.label)
        return step_facts(step, reg)

    return calls, counting


@pytest.mark.parametrize("name", ["bisector_pons", "euclid_i5", "euclid_i6"])
def test_kernel_and_replay_take_step_facts_from_one_function(monkeypatch, step_fact_calls, name):
    """The replay builds a step's facts once per check, and a branch's
    steps only when a trial takes that branch: every trial of euclid_i6,
    one case split, takes `eq`, which has no steps.  The kernel builds
    every step's, each branch's included."""
    block, registry = _corpus_block(name)
    steps = block.proof.steps
    calls, counting = step_fact_calls
    monkeypatch.setattr(models, "step_facts", counting)
    for trials in (10, 40):
        del calls[:]
        rep = model_check(
            POINCARE, block.statement, steps, trials=trials, seed=3, registry=registry
        )
        # euclid_i5's step e2 walks one of its first 10 trials and two of its
        # 40 out of the disk's working domain (GeodesicOutOfDomain)
        skipped = {("euclid_i5", 10): 1, ("euclid_i5", 40): 2}.get((name, trials), 0)
        assert (rep.trials_run, rep.skipped) == (trials - skipped, skipped)
        assert calls == [step.label for step in steps if not isinstance(step, CasesStep)]
    monkeypatch.setattr(kernel, "step_facts", counting)
    del calls[:]
    assert check_proof(block.statement, block.proof, registry).status == "ok"
    assert calls == _labels(steps)


def test_replay_compiles_a_branch_when_a_trial_first_takes_it(monkeypatch, step_fact_calls):
    """euclid_i6's strict branches, on triangles whose legs differ: each
    branch's steps are compiled once, when a trial first takes it, and
    the replay collects the facts its steps derive, in order."""
    block, registry = _corpus_block("euclid_i6")
    (split,) = block.proof.steps
    branches = {b.kind: b.steps for b in split.branches}
    calls, counting = step_fact_calls
    monkeypatch.setattr(models, "step_facts", counting)
    replay = models.Replay(EUCLIDEAN, block.proof.steps, registry)
    assert calls == []
    shorter = models.Trial(EUCLIDEAN, {A: (0.0, 0.0), B: (1.0, 0.0), C: (0.0, 2.0)})  # |AB| < |AC|
    longer = models.Trial(EUCLIDEAN, {A: (0.0, 0.0), B: (2.0, 0.0), C: (0.0, 1.0)})
    for trial, kind, compiled in ((shorter, "lt", "lt"), (shorter, "lt", "lt"), (longer, "gt", "lt gt")):
        out, cuts = [], []
        at = replay.run(trial, out, cuts)
        assert calls == _labels([s for k in compiled.split() for s in branches[k]])
        derived = [f for s in branches[kind] for f in kernel.step_facts(s, registry)]
        assert [f for part in out for f in part] == derived
        assert cuts == [] and set(at) == {"A", "B", "C", "D"}


# ---------------------------------------------------------------------------
# Statement-level model checking


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_isosceles_base_angles_hold_in_every_model(model):
    rep = model_check(model, _isosceles_statement(), trials=200, seed=7)
    assert rep.trials_run == 200
    assert rep.failures == 0
    assert rep.first_counterexample is None


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_converse_holds_in_every_model(model):
    rep = model_check(model, _converse_statement(), trials=200, seed=7)
    assert rep.trials_run == 200
    assert rep.failures == 0


def test_model_check_zero_trials():
    rep = model_check(EUCLIDEAN, _isosceles_statement(), trials=0)
    assert rep.trials_run == 0 and rep.failures == 0 and rep.skipped == 0
    assert rep.as_dict() == {
        "trials": 0,
        "trials_run": 0,
        "failures": 0,
        "skipped": 0,
    }


def test_model_check_reports_counterexample_points():
    # a false claim: every triangle is isosceles
    stmt = _statement(
        ("A", "B", "C"),
        (("h1", non_collinear(A, B, C)),),
        (seg_eq(segment(A, B), segment(A, C)),),
    )
    rep = model_check(EUCLIDEAN, stmt, trials=50, seed=0)
    assert rep.failures > 0
    ce = rep.first_counterexample
    assert ce is not None
    assert tuple(n for n, _ in ce.points) == ("A", "B", "C")
    assert "seg" in ce.fact


# ---------------------------------------------------------------------------
# Shared draws and the per-trial distance table


def _corpus_checks():
    """A check per corpus statement, then the conjecture, in the order the
    model command runs them."""
    blocks, registry = _corpus()
    checks = [
        partial(
            model_check, statement=b.statement, registry=registry,
            steps=b.proof.steps if b.proof is not None else (),
        )
        for b in blocks
        if b.statement is not None
    ]
    return checks + [partial(model_check_conjecture, name="angle_sum_pi", points=("A", "B", "C"))]


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_shared_draws_give_the_reports_of_fresh_draws(model, seed):
    store = {}
    checks = _corpus_checks()
    for check in checks:
        shared = check(model, trials=15, seed=seed, samples=store)
        assert shared.as_dict() == check(model, trials=15, seed=seed).as_dict()
    # the statements and the conjecture share 3 streams of draws
    assert len(checks) == 8 and len(store) == 3


def test_shared_draws_keep_their_points():
    foot, registry = _corpus_block("bisector_foot")
    assert foot.statement.introduced == ("H",)
    store = {}

    def snapshot():
        return {
            key: {k: None if t is None else dict(t) for k, t in drawn.items()}
            for key, drawn in store.items()
        }

    model_check(POINCARE, foot.statement, trials=30, seed=5, registry=registry, samples=store)
    before = snapshot()
    rep = model_check_conjecture(
        POINCARE, "angle_sum_pi", ("A", "B", "C"), trials=30, seed=5, samples=store
    )
    assert len(store) == 1  # the conjecture drew nothing of its own
    assert snapshot() == before
    assert all(H not in t for t in store.popitem()[1].values() if t is not None)
    assert rep.failures > 0
    assert [n for n, _ in rep.first_counterexample.points] == ["A", "B", "C"]


@pytest.mark.parametrize("model", MODELS)
def test_model_command_draws_each_trial_once_per_statement(model, monkeypatch, capsys):
    calls = []
    sample = models.sample_instance

    def counting(*args, **kwargs):
        calls.append(args[1].name)
        return sample(*args, **kwargs)

    monkeypatch.setattr(models, "sample_instance", counting)
    trials = 6
    assert main(["model", "--corpus", "--model", model, "--trials", str(trials)]) == 0
    assert len(calls) == 3 * trials


@pytest.fixture
def seeded(monkeypatch):
    """The seed of each Random that models builds, in order."""
    seeds = []

    class Counting(Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    monkeypatch.setattr(models, "Random", Counting)
    return seeds


@pytest.mark.parametrize("model", MODELS)
def test_model_command_seeds_one_stream_per_draw_key(model, seeded, capsys):
    # the corpus's statements and the conjecture make 3 draw keys a model;
    # seeding a Mersenne Twister per attempt made at least 3 * 6 of them
    assert main(["model", "--corpus", "--model", model, "--trials", "6"]) == 0
    assert seeded == ["0"] * 3


@pytest.mark.parametrize("rule_id", ["SAS_ORD", "NC_TRANSFER", "ABSURD_LT_EQ_SEG"])
def test_a_rule_soundness_check_seeds_one_stream(rule_id, seeded):
    check_rule_soundness(POINCARE, rule_id, trials=20, seed=3)
    assert seeded == [f"3:{rule_id}:poincare"]


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_a_check_draws_its_trials_in_turn_from_one_stream(model):
    block, registry = _corpus_block("bisector_pons")
    store = {}
    steps = block.proof.steps
    model_check(model, block.statement, steps, 12, seed=4, registry=registry, samples=store)
    (drawn,) = store.values()
    rng = Random("4")
    assert [dict(drawn[k]) for k in range(12)] == [
        dict(sample_instance(model, block.statement, rng)) for _ in range(12)
    ]


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_a_longer_check_goes_on_from_where_a_shorter_one_stopped(model):
    def snapshot(store):
        return {
            key: {k: None if t is None else dict(t) for k, t in drawn.items()}
            for key, drawn in store.items()
        }

    for check in _corpus_checks():
        shared, fresh = {}, {}
        check(model, trials=15, seed=2, samples=shared)
        longer = check(model, trials=30, seed=2, samples=shared)
        assert longer.as_dict() == check(model, trials=30, seed=2, samples=fresh).as_dict()
        assert snapshot(shared) == snapshot(fresh)


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_sample_instance_continues_a_stream_it_is_given(model):
    stmt = _isosceles_statement()
    rng = Random(8)
    first, second = sample_instance(model, stmt, rng), sample_instance(model, stmt, rng)
    assert dict(first) != dict(second)
    assert dict(sample_instance(model, stmt, Random(8))) == dict(first)


UNSATISFIABLE = """\
theorem unsat
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  assume h2: seg A B < seg A C
  assume h3: noncollinear A B C
  show noncollinear A B C
  proof
    s1: seg A B == seg A B by SEG_REFL[A,B] from refl
  qed from h3
"""


def test_a_statement_that_cannot_be_sampled_is_sampled_once(tmp_path, monkeypatch, capsys):
    # after the first trial that 1000 attempts cannot sample, the rest are
    # skipped unsampled, as in the rule harness
    path = tmp_path / "unsat.proof"
    path.write_text(UNSATISFIABLE, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    calls = []
    sample = models.sample_instance

    def counting(*args, **kwargs):
        calls.append(args[1].name)
        return sample(*args, **kwargs)

    monkeypatch.setattr(models, "sample_instance", counting)
    capsys.readouterr()
    assert main(["model", "--model", "euclidean", "--trials", "40", str(path)]) == 1
    assert capsys.readouterr().out == (
        "unsat [euclidean] trials=0 failures=0 skipped=40  FAILED: no trial evaluated\n"
    )
    assert calls == ["unsat"]


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_final_evaluation_measures_each_point_pair_once(model, monkeypatch):
    counted = type(model)()  # a fresh instance, so the counter stays local
    dist = counted.dist
    evaluating, seen, measured = [], {}, []

    def counting(p, q):
        if evaluating:
            measured.append((id(evaluating[-1]), frozenset((p, q))))
        return dist(p, q)

    counted.dist = counting
    first_false = models.Plan.first_false

    def spying(plan, instance):
        seen[id(instance)] = instance  # kept alive, so ids stay unique
        evaluating.append(instance)
        try:
            return first_false(plan, instance)
        finally:
            evaluating.pop()

    monkeypatch.setattr(models.Plan, "first_false", spying)
    for check in _corpus_checks()[:-1]:
        check(counted, trials=10, seed=4)
    assert measured
    for key, times in Counter(measured).items():
        assert times == 1, key
    per_instance = Counter(key for key, _ in measured)
    for key, pairs in per_instance.items():
        n = len(seen[key])
        assert pairs <= n * (n - 1) // 2


REUSED_AFTER_SPLIT = """\
theorem reuse_after_split
  tags: neutral
  points A B C
  assume h1: noncollinear A B C
  show seg A B == seg A B
  proof
    c1: cases seg A B vs seg A C
    case lt
      e1: extend A B by seg A B as E
      r1: seg A B == seg A B by SEG_REFL[A,B] from refl
      close goal from r1
    case eq
      e2: extend A B by seg A B as E
      r2: seg A B == seg A B by SEG_REFL[A,B] from refl
      close goal from r2
    case gt
      e3: extend A B by seg A B as E
      r3: seg A B == seg A B by SEG_REFL[A,B] from refl
      close goal from r3
    e4: extend A C by seg A B as E
  qed from c1
"""


def test_a_name_bound_again_after_a_split_is_measured_where_each_step_put_it():
    # the branch's E is out of scope after the split, so the checked proof
    # names E again; the branch's between(B;{A,E}) is measured before e4
    # moves E off the line A B
    ast = parse(REUSED_AFTER_SPLIT)
    blocks = elaborate_script(ast)
    (block,), registry = blocks, collect_statements(blocks)
    assert check_proof(block.statement, block.proof, registry).status == "ok"
    for model in MODELS.values():
        rep = model_check(model, block.statement, block.proof.steps, 50, registry=registry)
        # step e1 walks one Poincare trial out of the disk's working domain
        # (GeodesicOutOfDomain); it is skipped, not failed
        run = 49 if model is POINCARE else 50
        assert (rep.trials_run, rep.skipped, rep.failures) == (run, 50 - run, 0), model.name


PERP_FOOT = """\
theorem perp_foot
  tags: neutral
  points A B C
  introduces D
  assume h1: noncollinear A B C
  show between B D C
  show ang A D B == ang A D C

theorem uses_foot
  tags: neutral
  points A B C
  introduces D
  assume h1: noncollinear A B C
  show between B D C
  show ang A D B == ang A D C
  proof
    l1: lemma perp_foot(A,B,C) as D
  qed from l1
"""


def _checks(text):
    """The blocks of a script and their registry, each proof checked."""
    blocks = elaborate_script(parse(text))
    registry = collect_statements(blocks)
    for b in blocks:
        assert b.proof is None or check_proof(b.statement, b.proof, registry).status == "ok"
    return blocks, registry


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_a_stated_point_is_skipped_where_its_lemma_use_is(model):
    # on the sphere the bracket's first probe can land within eq_tol of B,
    # where its angle cannot be measured: the stated theorem skips that
    # draw, as the proof that applies it as a lemma does
    blocks, registry = _checks(PERP_FOOT)
    stated, used = [
        model_check(model, b.statement, b.proof.steps if b.proof else (), 50, seed=0,
                    registry=registry)
        for b in blocks
    ]
    assert stated.as_dict() == used.as_dict()
    assert stated.trials_run > 0 and stated.failures == 0


def _steps(text):
    """The first block's statement and proof steps (none without a proof)."""
    block = _checks(text)[0][0]
    return block.statement, block.proof.steps if block.proof else ()


def _unsampleable():
    hyps = (("h1", seg_lt(segment(A, B), segment(C, D))), ("h2", seg_lt(segment(C, D), segment(A, B))))
    stmt = _statement(("A", "B", "C", "D"), hyps, (seg_eq(segment(A, B), segment(A, B)),))
    return model_check(EUCLIDEAN, stmt, (), 20)


def _dead_zone():
    # the split's two segments differ by 5 eq_tol: neither equal nor ordered
    (block,), _ = _checks(REUSED_AFTER_SPLIT)
    split = block.proof.steps[:1]
    trial = models.Trial(EUCLIDEAN, {A: (0.0, 0.0), B: (1.0, 0.0), C: (0.0, 1.0 + 5.0 * EUCLIDEAN.eq_tol)})
    walk = lambda t: (None, models.Replay(EUCLIDEAN, split, {}).run(t, [], []))
    return models.ModelCheckReport(EUCLIDEAN.name, 1).tally([(0, trial)], walk)


@pytest.mark.parametrize("check", [
    pytest.param(_unsampleable, id="unsampleable"),
    pytest.param(lambda: model_check(POINCARE, *_steps(RIM), 20), id="out-of-domain"),
    pytest.param(lambda: model_check(SPHERE, *_steps(PERP_FOOT), 50, seed=0), id="unsolvable"),
    pytest.param(_dead_zone, id="dead-zone"),
])
def test_every_skipped_trial_is_counted_not_raised(check):
    rep = check()
    assert rep.skipped > 0
    assert rep.trials_run + rep.skipped == rep.trials


def test_moving_a_point_drops_only_its_measured_distances():
    trial = models.Trial(EUCLIDEAN, {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (0.0, 2.0)})
    assert [trial.dist(*pair) for pair in ("AB", "BC", "AC")] == pytest.approx([1.0, 5**0.5, 2.0])
    moved = trial.with_point("B", (3.0, 0.0))
    assert set(moved.dists) == {("A", "C"), ("C", "A")}
    assert [moved.dist(*pair) for pair in ("AB", "BC")] == pytest.approx([3.0, 13**0.5])
    assert trial.dist("A", "B") == pytest.approx(1.0)  # the original keeps its table


# ---------------------------------------------------------------------------
# The angle-sum conjecture splits the models


def test_angle_sum_passes_only_in_the_flat_model():
    flat = model_check_conjecture(EUCLIDEAN, "angle_sum_pi", ("A", "B", "C"), trials=100)
    assert flat.trials_run == 100 and flat.failures == 0

    thin = model_check_conjecture(POINCARE, "angle_sum_pi", ("A", "B", "C"), trials=100)
    assert thin.failures > 0
    assert thin.first_counterexample is not None
    assert thin.first_counterexample.trial < 100

    fat = model_check_conjecture(SPHERE, "angle_sum_pi", ("A", "B", "C"), trials=100)
    assert fat.failures > 0
    assert fat.first_counterexample is not None


@pytest.mark.parametrize(
    "model,sign", [(POINCARE, -1.0), (SPHERE, 1.0)], ids=["poincare", "sphere"]
)
def test_angle_sum_direction(model, sign):
    stmt = _statement(
        ("A", "B", "C"),
        (("h1", non_collinear(A, B, C)),),
        (non_collinear(A, B, C),),
    )
    for k in range(20):
        inst = sample_instance(model, stmt, seed=k)
        total = (
            angle_at(model, inst[B], inst[A], inst[C])
            + angle_at(model, inst[A], inst[B], inst[C])
            + angle_at(model, inst[A], inst[C], inst[B])
        )
        assert sign * (total - math.pi) > 1e-6, (k, total)


def test_unknown_conjecture_name():
    from ponscheck import UnknownConjecture

    with pytest.raises(UnknownConjecture):
        model_check_conjecture(EUCLIDEAN, "riemann_hypothesis", ("A", "B", "C"))


def test_the_builtin_conjectures_are_those_every_command_checks_against():
    assert BUILTIN_CONJECTURES.keys() == CONJECTURE_ARITIES.keys()


# ---------------------------------------------------------------------------
# Rule soundness spot checks (the full sweep lives in the acceptance tests)


def test_an_ill_conditioned_sample_is_skipped_not_failed(monkeypatch):
    """A slide four times as long builds poincare ASA_ORD premises on
    ill-conditioned triangles.  Accepting their gaps up to eq_tol made a
    sound rule fail 255 of 300 trials; the guard's tighter comparison
    rejects those samples instead."""
    monkeypatch.setattr(models, "_SLIDE_LEGS", 16.0)
    rep = check_rule_soundness(POINCARE, "ASA_ORD", trials=300, seed=11)
    assert rep.failures == 0 and rep.trials_run + rep.skipped == 300


def test_sas_rule_sound_in_flat_model():
    rep = check_rule_soundness(EUCLIDEAN, "SAS_ORD", trials=50, seed=3)
    assert rep.trials_run == 50 and rep.failures == 0


def test_whole_part_sound_on_sphere():
    rep = check_rule_soundness(SPHERE, "WHOLE_PART_ANG", trials=30, seed=3)
    assert rep.trials_run == 30 and rep.failures == 0


def test_contradiction_rules_are_vacuous():
    rep = check_rule_soundness(POINCARE, "ABSURD_LT_EQ_SEG", trials=50, seed=3)
    assert rep.trials_run == 0 and rep.failures == 0


def test_rule_soundness_rejects_unknown_rule():
    with pytest.raises(KeyError):
        check_rule_soundness(EUCLIDEAN, "NOT_A_RULE", trials=1)


def test_nc_transfer_samples_p_and_q_on_the_line_through_x_and_y(monkeypatch):
    """NC_TRANSFER's side condition puts p and q on the line x y; a trial
    with p and q anywhere else tests nothing about the rule."""
    conclusion = non_collinear("p", "q", "z")
    seen = []
    first_false = models.Plan.first_false

    def spy(plan, instance):
        if conclusion in plan.facts:
            seen.append(dict(instance))
        return first_false(plan, instance)

    monkeypatch.setattr(models.Plan, "first_false", spy)
    for model in MODELS.values():
        seen.clear()
        rep = check_rule_soundness(model, "NC_TRANSFER", trials=100, seed=3)
        assert rep.trials_run == len(seen) == 100 and rep.failures == 0, model.name
        for inst in seen:
            assert not eval_fact(model, inst, non_collinear("p", "x", "y")), model.name
            assert not eval_fact(model, inst, non_collinear("q", "x", "y")), model.name


def test_a_rule_without_its_betweenness_premises_fails(monkeypatch):
    """SEG_SUM without its two `between` premises is unsound; the harness
    must report failures, not skip every trial."""
    seg_sum = RULES["SEG_SUM"]
    monkeypatch.setitem(RULES, "SEG_SUM", seg_sum._replace(premises=seg_sum.premises[2:]))
    for model in MODELS.values():
        rep = check_rule_soundness(model, "SEG_SUM", trials=10, seed=3)
        assert rep.trials_run == 10 and rep.failures > 0, model.name


def test_no_model_name_dispatch_in_src():
    # per-model constants and formulas live on the Model classes
    src = Path(ponscheck.__file__).parent
    names = r"""["'](?:euclidean|poincare|sphere)["']"""
    dispatch = re.compile(rf"name\s*[!=]=\s*{names}|{names}\s*[!=]=")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if dispatch.search(line)
    ]
    assert hits == []
