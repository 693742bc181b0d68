"""Case branches run on one shared state and are rolled back afterwards:
nothing a branch introduces is visible to its siblings or after the
split, whether the kernel checks steps built here or parsed from text."""

import pytest

from ponscheck.elaborate import make_statement
from ponscheck.kernel import (
    CaseBranch,
    CasesStep,
    ExtendStep,
    FactAst,
    LemmaStep,
    Proof,
    RuleStep,
    TheoremStatement,
    _run_steps,
    check_proof,
    initial_state,
)
from ponscheck.script import parse
from ponscheck.terms import PointId, between, non_collinear, seg_eq, segment

P = PointId


def _nc(a, b, c):
    return non_collinear(P(a), P(b), P(c))


def _seg_refl(a, b):
    return seg_eq(segment(P(a), P(b)), segment(P(a), P(b)))


def _rule(label, kind, points, rule_id, inst, refs):
    """A rule step as the parser builds it from its written form."""
    return RuleStep(label, FactAst(kind, points), rule_id, inst, False, refs)


# D lies between A and B, so {A, B, D} is a recorded line from the start.
STATEMENT = TheoremStatement(
    name="probe",
    points=("A", "B", "C", "D", "E"),
    hypotheses=(("h1", _nc("A", "B", "C")), ("h2", between(P("D"), P("A"), P("B")))),
    conclusions=(_nc("A", "B", "C"),),
)

REGISTRY = {
    "needs_nc": TheoremStatement(
        name="needs_nc",
        points=("X", "Y", "Z"),
        hypotheses=(("k1", _nc("X", "Y", "Z")),),
        conclusions=(_seg_refl("X", "Y"),),
    ),
    "make_line": TheoremStatement(
        name="make_line",
        points=("X", "Y", "Z"),
        hypotheses=(),
        conclusions=(between(P("Y"), P("X"), P("Z")),),
    ),
}

# What `case lt` introduces, and a step that needs it, with the error the
# kernel gives when the step runs where the introduction is not visible.
INTRODUCE_AND_USE = {
    "label": (
        _rule("x", "seg_eq", ("A", "B", "A", "B"), "SEG_REFL", ("A", "B"), ("refl",)),
        _rule(
            "u", "seg_eq", ("A", "B", "A", "B"), "SEG_TRANS", ("A", "B", "A", "B", "A", "B"),
            ("x", "x"),
        ),
        "UnknownPremise",
    ),
    "point": (
        ExtendStep("x", "A", "B", ("A", "C"), "F"),
        _rule("u", "seg_eq", ("A", "F", "A", "F"), "SEG_REFL", ("A", "F"), ("refl",)),
        "point F is not in scope",
    ),
    # strict mode derives noncollinear(A,C,D) by NC_TRANSFER from h1 and
    # the line {A,B,D}; the lemma needs that fact to be known already
    "nc_transfer": (
        _rule(
            "x", "seg_eq", ("C", "D", "C", "D"), "SAS_ORD", ("A", "D", "C", "A", "D", "C"),
            ("refl", "refl", "refl"),
        ),
        LemmaStep("u", "needs_nc", ("A", "D", "C"), ()),
        "HypothesisNotSatisfied",
    ),
    # the lemma records the line {A, C, E}; NC_TRANSFER needs it
    "line": (
        LemmaStep("x", "make_line", ("C", "E", "A"), ()),
        _rule(
            "u", "noncollinear", ("A", "B", "E"), "NC_TRANSFER", ("A", "C", "B", "A", "E"),
            ("h1",),
        ),
        "are not on one recorded line",
    ),
}


def _proof(lt=(), eq=(), gt=(), after=()):
    branches = tuple(
        CaseBranch(kind, tuple(steps), "goal", ("h1",))
        for kind, steps in (("lt", lt), ("eq", eq), ("gt", gt))
    )
    cases = CasesStep("c1", ("A", "B"), ("A", "C"), branches)
    return Proof((cases,) + tuple(after), ("h1",))


def _check(proof):
    return check_proof(STATEMENT, proof, REGISTRY, strict=True)


@pytest.mark.parametrize("what", sorted(INTRODUCE_AND_USE))
def test_kernel_branch_sees_its_own_introductions(what):
    intro, use, _ = INTRODUCE_AND_USE[what]
    report = _check(_proof(lt=(intro, use)))
    assert report.status == "ok", report.error


@pytest.mark.parametrize("where", ["eq", "gt", "after"])
@pytest.mark.parametrize("what", sorted(INTRODUCE_AND_USE))
def test_kernel_hides_lt_introductions(what, where):
    intro, use, error = INTRODUCE_AND_USE[what]
    report = _check(_proof(lt=(intro,), **{where: (use,)}))
    assert report.status == "failed"
    failed = [s for s in report.steps if not s.ok]
    assert [s.label for s in failed] == ["u"]
    assert error in failed[0].detail


def test_kernel_point_name_is_free_again_in_sibling():
    intro = INTRODUCE_AND_USE["point"][0]
    again = ExtendStep("y", "A", "B", ("A", "C"), "F")
    assert _check(_proof(lt=(intro,), eq=(again,))).status == "ok"


def _snapshot(state):
    return (
        set(state.known),
        dict(state.facts),
        set(state.points),
        state.lines.lines,
        {k: list(v) for k, v in state.noncollinear.items() if v},
        list(state.assumptions),
        len(state.trail),
    )


def test_kernel_parent_gains_only_the_split_label():
    introductions = [
        intro._replace(label=f"x{i}")
        for i, (intro, _, _) in enumerate(INTRODUCE_AND_USE.values())
    ]
    for lt in (introductions, ()):  # every branch empty in the second run
        state = initial_state(STATEMENT, REGISTRY, strict=True)
        before = _snapshot(state)
        _run_steps(state, _proof(lt=lt).steps)
        known, facts, points, lines, nc, assumptions, trail = _snapshot(state)
        assert facts.pop("c1") == STATEMENT.conclusions
        assert (known, facts, points, lines, nc, assumptions) == before[:-1]
        assert trail == before[-1] + 1


# A branch with no steps only names its assumption, and only until it closes.
_CITES_LT = ("h1", "c1.lt")


@pytest.mark.parametrize("where", ["eq", "gt", "after"])
def test_kernel_empty_branch_label_is_gone_after_its_close(where):
    branches = tuple(
        CaseBranch(kind, (), "goal", _CITES_LT if kind in ("lt", where) else ("h1",))
        for kind in ("lt", "eq", "gt")
    )
    after = _rule(
        "u", "seg_eq", ("A", "B", "A", "B"), "SEG_TRANS", ("A", "B", "A", "B", "A", "B"),
        ("c1.lt", "c1.lt"),
    )
    steps = (CasesStep("c1", ("A", "B"), ("A", "C"), branches),)
    report = _check(Proof(steps + ((after,) if where == "after" else ()), ("h1",)))
    assert report.status == "failed"
    (failed,) = [s for s in report.steps if not s.ok]
    if where == "after":
        assert failed.label == "u"
        assert failed.detail == "UnknownPremise: no step or hypothesis labeled c1.lt"
    else:
        assert failed.label == f"c1 case {where} close"
        assert failed.detail == "UnknownPremise: no step or hypothesis labeled c1.lt"


@pytest.mark.parametrize("lt_steps", [(), (INTRODUCE_AND_USE["point"][0],)], ids=["none", "one"])
def test_kernel_split_label_taken_fails_the_split(lt_steps):
    taken = STATEMENT._replace(hypotheses=STATEMENT.hypotheses + (("c1.lt", _nc("A", "B", "C")),))
    report = check_proof(taken, _proof(lt=lt_steps), REGISTRY, strict=True)
    assert report.status == "failed"
    assert [(s.label, s.detail) for s in report.steps if not s.ok] == [
        ("c1", "KernelError: label c1.lt already defined")
    ]


# --- parsed proofs ---------------------------------------------------------

SCRIPT = """\
theorem probe
  tags: neutral
  points A B C
  assume h1: noncollinear A B C
  show noncollinear A B C
  proof
    c1: cases seg A B vs seg A C
    case lt
      x: extend A B by seg A C as F
      LT
      close goal from h1
    case eq
      EQ
      close goal from h1
    case gt
      GT
      close goal from h1
    AFTER
  qed from h1
"""

USES = {
    "label": (
        "u: seg A B < seg A C by LT_SUBST_SEG[A,B,A,C,A,B,A,C] from c1.lt, refl, refl",
        "UnknownPremise: no step or hypothesis labeled c1.lt",
    ),
    "point": (
        "u: seg A F == seg A F by SEG_REFL[A,F] from refl",
        "KernelError: point F is not in scope",
    ),
}


def _check_script(**slots):
    text = SCRIPT
    for slot in ("LT", "EQ", "GT", "AFTER"):
        filler = f"n{slot}: seg A B == seg A B by SEG_REFL[A,B] from refl"
        text = text.replace(slot, slots.get(slot, filler))
    (theorem,) = parse(text).items
    return check_proof(make_statement(theorem), theorem.proof)


@pytest.mark.parametrize("what", sorted(USES))
def test_parsed_branch_sees_its_own_introductions(what):
    report = _check_script(LT=USES[what][0])
    assert report.status == "ok", report.error


@pytest.mark.parametrize("where", ["EQ", "GT", "AFTER"])
@pytest.mark.parametrize("what", sorted(USES))
def test_parsed_proof_hides_lt_introductions(what, where):
    use, error = USES[what]
    report = _check_script(**{where: use})
    assert report.status == "failed"
    failed = [s for s in report.steps if not s.ok]
    assert [s.label for s in failed] == ["u"]
    assert error in failed[0].detail


# --- the shape of a split --------------------------------------------------

PONS = """\
theorem pons
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  assume h2: noncollinear A B C
  show ang A B C == ang A C B
  proof
    c1: cases seg A B vs seg A C
    case lt
      s1: ang A B C == ang A C B by SAS_ORD[(A,B,C),(A,C,B)] from h1, h1, refl
      close goal from s1
    case eq
      s2: ang A B C == ang A C B by SAS_ORD[(A,B,C),(A,C,B)] from h1, h1, refl
      close goal from s2
    case gt
      s3: ang A B C == ang A C B by SAS_ORD[(A,B,C),(A,C,B)] from h1, h1, refl
      close goal from s3
  qed from c1
"""


def _pons_with(pick):
    """The pons proof with its split's branches replaced by `pick(branches)`;
    the parser builds only the three branches lt, eq, gt in order, so any
    other split is built here."""
    (theorem,) = parse(PONS).items
    split = theorem.proof.steps[0]
    proof = theorem.proof._replace(steps=(split._replace(branches=pick(split.branches)),))
    return check_proof(make_statement(theorem), proof)


def test_pons_split_parsed_as_written_is_ok():
    report = _pons_with(lambda b: b)
    assert report.status == "ok", report.error


# a branch that does not establish the goal
_UNCLOSED = CaseBranch("gt", (), "goal", ("h2",))


@pytest.mark.parametrize(
    "pick",
    [
        lambda b: (),
        lambda b: b[:1],
        lambda b: b[:2],
        lambda b: b + (_UNCLOSED,),
        lambda b: (b[1], b[0], b[2]),
    ],
    ids=["none", "lt", "lt-eq", "four", "out-of-order"],
)
def test_a_split_needs_exactly_the_branches_lt_eq_gt(pick):
    report = _pons_with(pick)
    assert report.status == "failed"
    (failed,) = [s for s in report.steps if not s.ok]
    assert failed.label == "c1"
    assert failed.detail == "KernelError: case branches must be lt, eq, gt in that order"
