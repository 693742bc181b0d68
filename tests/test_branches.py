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
    InstAst,
    LemmaStep,
    Proof,
    Ref,
    RuleStep,
    TheoremStatement,
    _Ctx,
    _run_steps,
    check_proof,
    initial_state,
)
from ponscheck.script import parse
from ponscheck.terms import PointId, between, non_collinear, seg_eq, segment

P = PointId
LBL = lambda s: Ref("label", s)  # noqa: E731
REFL = Ref("refl")


def _nc(a, b, c):
    return non_collinear(P(a), P(b), P(c))


def _seg_refl(a, b):
    return seg_eq(segment(P(a), P(b)), segment(P(a), P(b)))


def _rule(label, kind, points, rule_id, inst, refs):
    """A rule step as the parser builds it from its written form."""
    return RuleStep(label, FactAst(kind, points), rule_id, InstAst(inst), refs)


# D lies between A and B, so {A, B, D} is a recorded line from the start.
STATEMENT = TheoremStatement(
    name="probe",
    tags=frozenset(),
    points=("A", "B", "C", "D", "E"),
    hypotheses=(("h1", _nc("A", "B", "C")), ("h2", between(P("D"), P("A"), P("B")))),
    conclusions=(_nc("A", "B", "C"),),
)

REGISTRY = {
    "needs_nc": TheoremStatement(
        name="needs_nc",
        tags=frozenset(),
        points=("X", "Y", "Z"),
        hypotheses=(("k1", _nc("X", "Y", "Z")),),
        conclusions=(_seg_refl("X", "Y"),),
    ),
    "make_line": TheoremStatement(
        name="make_line",
        tags=frozenset(),
        points=("X", "Y", "Z"),
        hypotheses=(),
        conclusions=(between(P("Y"), P("X"), P("Z")),),
    ),
}

# What `case lt` introduces, and a step that needs it, with the error the
# kernel gives when the step runs where the introduction is not visible.
INTRODUCE_AND_USE = {
    "label": (
        _rule("x", "seg_eq", ("A", "B", "A", "B"), "SEG_REFL", ("A", "B"), (REFL,)),
        _rule(
            "u", "seg_eq", ("A", "B", "A", "B"), "SEG_TRANS", ("A", "B", "A", "B", "A", "B"),
            (LBL("x"), LBL("x")),
        ),
        "UnknownPremise",
    ),
    "point": (
        ExtendStep("x", "A", "B", ("A", "C"), "F"),
        _rule("u", "seg_eq", ("A", "F", "A", "F"), "SEG_REFL", ("A", "F"), (REFL,)),
        "point F is not in scope",
    ),
    # strict mode derives noncollinear(A,C,D) by NC_TRANSFER from h1 and
    # the line {A,B,D}; the lemma needs that fact to be known already
    "nc_transfer": (
        _rule(
            "x", "seg_eq", ("C", "D", "C", "D"), "SAS_ORD", ("A", "D", "C", "A", "D", "C"),
            (REFL, REFL, REFL),
        ),
        LemmaStep("u", "needs_nc", ("A", "D", "C"), ()),
        "HypothesisNotSatisfied",
    ),
    # the lemma records the line {A, C, E}; NC_TRANSFER needs it
    "line": (
        LemmaStep("x", "make_line", ("C", "E", "A"), ()),
        _rule(
            "u", "noncollinear", ("A", "B", "E"), "NC_TRANSFER", ("A", "C", "B", "A", "E"),
            (LBL("h1"),),
        ),
        "are not on one recorded line",
    ),
}


def _proof(lt=(), eq=(), gt=(), after=()):
    branches = tuple(
        CaseBranch(kind, tuple(steps), "goal", (LBL("h1"),))
        for kind, steps in (("lt", lt), ("eq", eq), ("gt", gt))
    )
    cases = CasesStep("c1", ("A", "B"), ("A", "C"), branches)
    return Proof((cases,) + tuple(after), (LBL("h1"),))


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
    state = initial_state(STATEMENT)
    before = _snapshot(state)
    introductions = [
        intro._replace(label=f"x{i}")
        for i, (intro, _, _) in enumerate(INTRODUCE_AND_USE.values())
    ]
    proof = _proof(lt=introductions)
    _run_steps(state, proof.steps, _Ctx(STATEMENT, REGISTRY, strict=True))
    known, facts, points, lines, nc, assumptions, trail = _snapshot(state)
    assert facts.pop("c1") == STATEMENT.conclusions
    assert (known, facts, points, lines, nc, assumptions) == before[:-1]
    assert trail == before[-1] + 1


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
