"""Rule schemas and the proof-checking kernel."""

import dataclasses
import importlib
import pkgutil
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import ponscheck

from ponscheck.kernel import (
    CaseBranch,
    CasesStep,
    ExtendStep,
    FactAst,
    InstAst,
    LayoffStep,
    LemmaStep,
    Proof,
    Ref,
    RuleStep,
    StepResult,
    TheoremStatement,
    check_proof,
)
from ponscheck.elaborate import collect_statements, elaborate_script
from ponscheck.rules import RULE_IDS, RULES
from ponscheck.script import parse
from ponscheck.terms import (
    Fact,
    PointId,
    ang_eq,
    angle,
    between,
    fact_point_names,
    non_collinear,
    seg_eq,
    seg_lt,
    segment,
    subst_fact,
)

P = PointId
LBL = lambda s: Ref("label", s)
REFL = Ref("refl")

EXPECTED_RULES = (
    "ABSURD_LT_EQ_ANG",
    "ABSURD_LT_EQ_SEG",
    "ANG_REFL",
    "ANG_SYM",
    "ANG_TRANS",
    "ARM_SUBST",
    "ASA_ORD",
    "LT_SUBST_ANG",
    "LT_SUBST_SEG",
    "NC_TRANSFER",
    "SAS_ORD",
    "SEG_REFL",
    "SEG_SUM",
    "SEG_SYM",
    "SEG_TRANS",
    "SUPP_CONG",
    "WHOLE_PART_ANG",
    "WHOLE_PART_SEG",
)


def test_rule_inventory_is_closed():
    assert RULE_IDS == EXPECTED_RULES


def test_rule_arity_enforced():
    with pytest.raises(ValueError):
        RULES["SAS_ORD"].bind([P("A"), P("B")])


def test_schemas_are_facts_over_their_own_variables():
    for schema in RULES.values():
        names = set(schema.variables)
        for fact in schema.premises + schema.conclusions:
            assert isinstance(fact, Fact), (schema.rule_id, fact)
            assert set(fact_point_names(fact)) <= names, (schema.rule_id, fact)
        for triple in schema.side_conditions:
            assert set(triple) <= names, (schema.rule_id, triple)
        assert set(schema.collinear_side) <= names


def test_the_identity_instantiates_a_schema_as_its_own_facts():
    for schema in RULES.values():
        identity = schema.bind(schema.variables)
        assert schema.instantiate_premises(identity) == schema.premises
        assert schema.instantiate_conclusions(identity) == schema.conclusions
        assert schema.instantiate_side_conditions(identity) == schema.side_conditions


SCHEMA_FACTS = sorted({f for s in RULES.values() for f in s.premises + s.conclusions})
VARIABLES = sorted({v for s in RULES.values() for v in s.variables})
POOL = VARIABLES + list("ABCDEFGH")


@settings(max_examples=100, deadline=None)
@given(st.permutations(POOL), st.permutations(POOL))
def test_renaming_twice_is_renaming_by_the_composite(image1, image2):
    """For injective maps m1 and m2, renaming by m1 then m2 equals renaming
    by m2 after m1, on every schema fact; the mutation gate instantiates
    renamed schema facts and relies on this."""
    m1 = dict(zip(VARIABLES, image1))
    m2 = dict(zip(POOL, image2))
    composite = {v: m2[m1[v]] for v in VARIABLES}
    for fact in SCHEMA_FACTS:
        assert subst_fact(subst_fact(fact, m1), m2) == subst_fact(fact, composite)


def _pons_statement() -> TheoremStatement:
    return TheoremStatement(
        name="pons",
        tags=frozenset({"NEUTRAL"}),
        points=("A", "B", "C"),
        hypotheses=(
            ("h1", seg_eq(segment(P("A"), P("B")), segment(P("A"), P("C")))),
            ("h2", non_collinear(P("A"), P("B"), P("C"))),
        ),
        conclusions=(ang_eq(angle(P("A"), P("B"), P("C")), angle(P("A"), P("C"), P("B"))),),
    )


def _pons_proof() -> Proof:
    # mirror application of the ordered SAS rule to (A,B,C) vs (A,C,B)
    step = RuleStep(
        label="s1",
        fact=FactAst("ang_eq", ("A", "B", "C", "A", "C", "B")),
        rule_id="SAS_ORD",
        inst=InstAst(("A", "B", "C", "A", "C", "B")),
        refs=(LBL("h1"), LBL("h1"), REFL),
        line=1,
    )
    return Proof(steps=(step,), qed_refs=(LBL("s1"),), line=2)


def test_mirror_sas_closes_pons():
    report = check_proof(_pons_statement(), _pons_proof())
    assert report.status == "ok"
    assert "SAS_ORD" in report.rule_uses
    assert all(sr.ok for sr in report.steps)


_AB, _AD, _BD = segment(P("A"), P("B")), segment(P("A"), P("D")), segment(P("B"), P("D"))
_NC = ("h1", non_collinear(P("A"), P("B"), P("C")))


def _statement(name, hypotheses, conclusions):
    return TheoremStatement(
        name=name, tags=frozenset(), points=("A", "B", "C"),
        hypotheses=hypotheses, conclusions=conclusions,
    )


def _through_lemma(hypotheses, conclusions):
    """A sound statement whose one step applies a lemma that names D."""
    lemma = _statement("bad_lemma", hypotheses, conclusions)
    proof = Proof((LemmaStep("m1", "bad_lemma", ("A", "B", "C"), (), 1),), ())
    return _statement("user", (_NC,), ()), proof, {"bad_lemma": lemma}


# Each builds (statement, proof, registry); D is declared nowhere.  Without a
# statement check, the first two would pass: qed cites the hypothesis that
# names D, or an extend step that happens to name its new point D.
UNDECLARED_POINT = {
    "hypothesis": lambda: (
        _statement("hyp", (("h1", seg_eq(_AB, _AD)),), (seg_eq(_AB, _AD),)),
        Proof((), (LBL("h1"),)), {},
    ),
    "conclusion": lambda: (
        _statement("concl", (_NC,), (seg_eq(_BD, _AB),)),
        Proof((ExtendStep("e1", "A", "B", ("A", "B"), "D", 1),), (LBL("e1"),)), {},
    ),
    "lemma_hypothesis": lambda: _through_lemma((_NC, ("h2", seg_eq(_AB, _AD))), ()),
    "lemma_conclusion": lambda: _through_lemma((_NC,), (seg_eq(_AB, _AD),)),
}


@pytest.mark.parametrize("case", sorted(UNDECLARED_POINT))
def test_a_statement_naming_an_undeclared_point_is_never_ok(case):
    try:
        statement, proof, registry = UNDECLARED_POINT[case]()
    except ValueError as exc:  # refused where the statement is built
        assert "point D" in str(exc)
        return
    report = check_proof(statement, proof, registry)
    assert report.status == "failed"
    assert "point D" in report.error


def test_unknown_premise_label_fails():
    bad = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("ang_eq", ("A", "B", "C", "A", "C", "B")),
                rule_id="SAS_ORD",
                inst=InstAst(("A", "B", "C", "A", "C", "B")),
                refs=(LBL("nope"), LBL("h1"), REFL),
                line=1,
            ),
        ),
        qed_refs=(LBL("s1"),),
    )
    report = check_proof(_pons_statement(), bad)
    assert report.status == "failed"
    assert "nope" in (report.error or "")


_BOUNDED = TheoremStatement(
    name="bounded",
    tags=frozenset(),
    points=("A", "B", "C"),
    hypotheses=(_NC, ("h3", seg_lt(_AB, segment(P("A"), P("C"))))),
    conclusions=(_NC[1],),
)


def _closes(lt_refs):
    """A split whose three branches close the goal, `lt` from `lt_refs`."""
    branches = tuple(
        CaseBranch(kind, (), "goal", lt_refs if kind == "lt" else (LBL("h1"),), 3 + i)
        for i, kind in enumerate(("lt", "eq", "gt"))
    )
    return Proof((CasesStep("c1", ("A", "B"), ("A", "C"), branches, 2),), (LBL("c1"),), 6)


# Each cites r9, which names nothing, after a citation that alone covers.
CITES_AFTER_A_COVERING_ONE = {
    "qed": lambda refs: Proof((), refs, 2),
    "close": _closes,
    "layoff": lambda refs: Proof(
        (LayoffStep("l1", "A", "C", ("A", "B"), "D", refs, 2),), (LBL("h1"),), 3
    ),
}


@pytest.mark.parametrize("where", sorted(CITES_AFTER_A_COVERING_ONE))
def test_every_cited_label_must_resolve(where):
    make = CITES_AFTER_A_COVERING_ONE[where]
    covering = LBL("h3") if where == "layoff" else LBL("h1")
    assert check_proof(_BOUNDED, make((covering,))).status == "ok"
    report = check_proof(_BOUNDED, make((covering, LBL("r9"))))
    assert report.status == "failed"
    assert "no step or hypothesis labeled r9" in report.error


def test_premise_mismatch_fails():
    bad = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("ang_eq", ("A", "B", "C", "A", "C", "B")),
                rule_id="SAS_ORD",
                inst=InstAst(("A", "B", "C", "A", "C", "B")),
                refs=(LBL("h2"), LBL("h1"), REFL),
                line=1,
            ),
        ),
        qed_refs=(LBL("s1"),),
    )
    report = check_proof(_pons_statement(), bad)
    assert report.status == "failed"


def test_refl_only_fills_reflexive_premises():
    # refl placeholder cannot stand in for a real segment equality
    bad = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("ang_eq", ("A", "B", "C", "A", "C", "B")),
                rule_id="SAS_ORD",
                inst=InstAst(("A", "B", "C", "A", "C", "B")),
                refs=(REFL, LBL("h1"), REFL),
                line=1,
            ),
        ),
        qed_refs=(LBL("s1"),),
    )
    # SegEq(seg(A,B), seg(A,C)) is not reflexive, so refl must be rejected
    report = check_proof(_pons_statement(), bad)
    assert report.status == "failed"


def test_conclusion_must_match_schema():
    bad = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("seg_eq", ("A", "B", "A", "C")),
                rule_id="SAS_ORD",
                inst=InstAst(("A", "B", "C", "A", "C", "B")),
                refs=(LBL("h1"), LBL("h1"), REFL),
                line=1,
            ),
        ),
        qed_refs=(LBL("s1"),),
    )
    report = check_proof(_pons_statement(), bad)
    assert report.status == "failed"


def test_degenerate_instantiation_fails():
    bad = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("ang_eq", ("A", "B", "C", "A", "C", "B")),
                rule_id="SAS_ORD",
                inst=InstAst(("A", "A", "C", "A", "C", "A")),
                refs=(LBL("h1"), LBL("h1"), REFL),
                line=1,
            ),
        ),
        qed_refs=(LBL("s1"),),
    )
    report = check_proof(_pons_statement(), bad)
    assert report.status == "failed"


def test_qed_must_cover_conclusions():
    proof = Proof(steps=_pons_proof().steps, qed_refs=(LBL("h1"),))
    report = check_proof(_pons_statement(), proof)
    assert report.status == "failed"


def test_side_condition_assumed_permissive_failed_strict():
    # same proof but the statement gives no noncollinearity hypothesis
    stmt = TheoremStatement(
        name="pons_degenerate",
        tags=frozenset(),
        points=("A", "B", "C"),
        hypotheses=(
            ("h1", seg_eq(segment(P("A"), P("B")), segment(P("A"), P("C")))),
        ),
        conclusions=(ang_eq(angle(P("A"), P("B"), P("C")), angle(P("A"), P("C"), P("B"))),),
    )
    lax = check_proof(stmt, _pons_proof())
    assert lax.status == "ok"
    assert lax.assumed  # the triangle nondegeneracy was taken on faith
    strict = check_proof(stmt, _pons_proof(), strict=True)
    assert strict.status == "failed"


def test_side_condition_fails_when_provably_collinear():
    stmt = TheoremStatement(
        name="collinear_sas",
        tags=frozenset(),
        points=("A", "B", "C"),
        hypotheses=(
            ("h1", seg_eq(segment(P("A"), P("B")), segment(P("A"), P("C")))),
            ("h2", between(P("B"), P("A"), P("C"))),
        ),
        conclusions=(ang_eq(angle(P("A"), P("B"), P("C")), angle(P("A"), P("C"), P("B"))),),
    )
    # B between A and C puts all three on a stored line: SAS side
    # condition is refuted even in permissive mode
    report = check_proof(stmt, _pons_proof())
    assert report.status == "failed"


def test_nc_transfer_probe_derives_side_condition():
    # D on line AB; noncollinear(A,B,C) known; SAS over (A,D,C) needs
    # noncollinear(A,D,C), derivable by transferring along the line
    stmt = TheoremStatement(
        name="transfer",
        tags=frozenset(),
        points=("A", "B", "C", "D"),
        hypotheses=(
            ("h1", non_collinear(P("A"), P("B"), P("C"))),
            ("h2", between(P("D"), P("A"), P("B"))),
            ("h3", seg_eq(segment(P("A"), P("D")), segment(P("A"), P("C")))),
        ),
        conclusions=(ang_eq(angle(P("A"), P("D"), P("C")), angle(P("A"), P("C"), P("D"))),),
    )
    proof = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("ang_eq", ("A", "D", "C", "A", "C", "D")),
                rule_id="SAS_ORD",
                inst=InstAst(("A", "D", "C", "A", "C", "D")),
                refs=(LBL("h3"), LBL("h3"), REFL),
                line=1,
            ),
        ),
        qed_refs=(LBL("s1"),),
    )
    report = check_proof(stmt, proof, strict=True)
    assert report.status == "ok"
    assert "NC_TRANSFER" in report.rule_uses
    assert any(rec.outcome == "derived" for rec in report.side_conditions)
    assert not report.assumed


def _statement_with_lt() -> TheoremStatement:
    return TheoremStatement(
        name="lay",
        tags=frozenset(),
        points=("A", "B", "C", "D"),
        hypotheses=(
            ("h1", seg_lt(segment(P("C"), P("D")), segment(P("A"), P("B")))),
        ),
        conclusions=(),
        introduced=("E",),
    )


def test_layoff_requires_bound():
    no_bound = Proof(
        steps=(
            LayoffStep(
                label="l1",
                start="A",
                toward="B",
                seg=("C", "D"),
                fresh="E",
                refs=(),
                line=1,
            ),
        ),
        qed_refs=(),
    )
    report = check_proof(_statement_with_lt(), no_bound)
    assert report.status == "failed"


def test_layoff_with_bound_places_point():
    proof = Proof(
        steps=(
            LayoffStep(
                label="l1",
                start="A",
                toward="B",
                seg=("C", "D"),
                fresh="E",
                refs=(LBL("h1"),),
                line=1,
            ),
        ),
        qed_refs=(),
    )
    report = check_proof(_statement_with_lt(), proof)
    assert report.status == "ok"


def test_extend_records_both_facts():
    stmt = TheoremStatement(
        name="ext",
        tags=frozenset(),
        points=("A", "B"),
        hypotheses=(),
        conclusions=(),
        introduced=("D",),
    )
    ext = ExtendStep(label="e1", a="A", b="B", seg=("A", "B"), fresh="D", line=1)
    # both recorded facts are citable: B between A,D and seg B,D == seg A,B
    s2 = RuleStep(
        label="s2",
        fact=FactAst("seg_lt", ("A", "B", "A", "D")),
        rule_id="WHOLE_PART_SEG",
        inst=InstAst(("A", "B", "D")),
        refs=(LBL("e1"),),
        line=2,
    )
    report = check_proof(stmt, Proof(steps=(ext, s2), qed_refs=()))
    assert report.status == "ok"


def test_absurd_outside_case_analysis_fails():
    stmt = TheoremStatement(
        name="oops",
        tags=frozenset(),
        points=("A", "B", "C", "D"),
        hypotheses=(
            ("h1", seg_lt(segment(P("A"), P("B")), segment(P("C"), P("D")))),
            ("h2", seg_eq(segment(P("A"), P("B")), segment(P("C"), P("D")))),
        ),
        conclusions=(),
    )
    proof = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("absurd"),
                rule_id="ABSURD_LT_EQ_SEG",
                inst=InstAst(("A", "B", "C", "D")),
                refs=(LBL("h1"), LBL("h2")),
                line=1,
            ),
        ),
        qed_refs=(),
    )
    report = check_proof(stmt, proof)
    assert report.status == "failed"


def test_cases_branch_assumptions_and_closure():
    # compare AB with CD where equality is the hypothesis: lt and gt
    # branches refute themselves, eq branch reaches the goal
    stmt = TheoremStatement(
        name="tri",
        tags=frozenset(),
        points=("A", "B", "C", "D"),
        hypotheses=(
            ("h1", seg_eq(segment(P("A"), P("B")), segment(P("C"), P("D")))),
        ),
        conclusions=(seg_eq(segment(P("A"), P("B")), segment(P("C"), P("D"))),),
    )
    mk_absurd = lambda which: RuleStep(
        label=f"{which}1",
        fact=FactAst("absurd"),
        rule_id="ABSURD_LT_EQ_SEG",
        inst=InstAst(("A", "B", "C", "D") if which == "l" else ("C", "D", "A", "B")),
        refs=(
            LBL("c1.lt") if which == "l" else LBL("c1.gt"),
            LBL("h1") if which == "l" else Ref("sym", "h1"),
        ),
        line=3,
    )
    cases = CasesStep(
        label="c1",
        left=("A", "B"),
        right=("C", "D"),
        branches=(
            CaseBranch(
                kind="lt",
                steps=(mk_absurd("l"),),
                close_kind="absurd",
                close_refs=(LBL("l1"),),
                line=2,
            ),
            CaseBranch(
                kind="eq", steps=(), close_kind="goal", close_refs=(LBL("c1.eq"),), line=4
            ),
            CaseBranch(
                kind="gt",
                steps=(mk_absurd("g"),),
                close_kind="absurd",
                close_refs=(LBL("g1"),),
                line=5,
            ),
        ),
        line=1,
    )
    proof = Proof(steps=(cases,), qed_refs=(LBL("c1"),))
    report = check_proof(stmt, proof)
    assert report.status == "ok"
    assert "ABSURD_LT_EQ_SEG" in report.rule_uses


def test_cases_open_branch_fails():
    stmt = TheoremStatement(
        name="tri_open",
        tags=frozenset(),
        points=("A", "B", "C", "D"),
        hypotheses=(
            ("h1", seg_eq(segment(P("A"), P("B")), segment(P("C"), P("D")))),
        ),
        conclusions=(seg_eq(segment(P("A"), P("B")), segment(P("C"), P("D"))),),
    )
    cases = CasesStep(
        label="c1",
        left=("A", "B"),
        right=("C", "D"),
        branches=(
            CaseBranch(kind="lt", steps=(), close_kind="goal", close_refs=(LBL("h1"),), line=2),
            CaseBranch(kind="eq", steps=(), close_kind="goal", close_refs=(LBL("c1.eq"),), line=3),
            CaseBranch(kind="gt", steps=(), close_kind="absurd", close_refs=(LBL("h1"),), line=4),
        ),
        line=1,
    )
    # gt branch cites a non-absurd fact to close an absurd branch
    report = check_proof(stmt, Proof(steps=(cases,), qed_refs=(LBL("c1"),)))
    assert report.status == "failed"


def test_lemma_step_instantiates_conclusions():
    helper = TheoremStatement(
        name="foot",
        tags=frozenset(),
        points=("A", "B", "C"),
        hypotheses=(("h1", non_collinear(P("A"), P("B"), P("C"))),),
        conclusions=(
            between(P("H"), P("B"), P("C")),
            ang_eq(angle(P("B"), P("A"), P("H")), angle(P("C"), P("A"), P("H"))),
        ),
        introduced=("H",),
    )
    stmt = TheoremStatement(
        name="use_foot",
        tags=frozenset(),
        points=("X", "Y", "Z"),
        hypotheses=(("h1", non_collinear(P("X"), P("Y"), P("Z"))),),
        conclusions=(between(P("M"), P("Y"), P("Z")),),
        introduced=("M",),
    )
    proof = Proof(
        steps=(
            LemmaStep(label="l1", lemma="foot", args=("X", "Y", "Z"), fresh=("M",), line=1),
        ),
        qed_refs=(LBL("l1"),),
    )
    report = check_proof(stmt, proof, registry={"foot": helper})
    assert report.status == "ok"
    assert report.lemma_uses == ("foot",)


def test_lemma_hypotheses_must_be_satisfied():
    helper = TheoremStatement(
        name="foot",
        tags=frozenset(),
        points=("A", "B", "C"),
        hypotheses=(("h1", non_collinear(P("A"), P("B"), P("C"))),),
        conclusions=(between(P("H"), P("B"), P("C")),),
        introduced=("H",),
    )
    stmt = TheoremStatement(
        name="no_hyp",
        tags=frozenset(),
        points=("X", "Y", "Z"),
        hypotheses=(),  # nothing establishes noncollinearity
        conclusions=(between(P("M"), P("Y"), P("Z")),),
        introduced=("M",),
    )
    proof = Proof(
        steps=(
            LemmaStep(label="l1", lemma="foot", args=("X", "Y", "Z"), fresh=("M",), line=1),
        ),
        qed_refs=(LBL("l1"),),
    )
    report = check_proof(stmt, proof, registry={"foot": helper})
    assert report.status == "failed"


def test_unknown_lemma_fails():
    stmt = TheoremStatement(
        name="ghost",
        tags=frozenset(),
        points=("X", "Y", "Z"),
        hypotheses=(),
        conclusions=(),
        introduced=("M",),
    )
    proof = Proof(
        steps=(
            LemmaStep(label="l1", lemma="missing", args=("X", "Y", "Z"), fresh=("M",), line=1),
        ),
        qed_refs=(),
    )
    report = check_proof(stmt, proof, registry={})
    assert report.status == "failed"


def test_sym_ref_flips_equality():
    stmt = TheoremStatement(
        name="symuse",
        tags=frozenset(),
        points=("A", "B", "C", "D", "E", "F"),
        hypotheses=(
            ("h1", seg_eq(segment(P("A"), P("B")), segment(P("C"), P("D")))),
            ("h2", seg_eq(segment(P("C"), P("D")), segment(P("E"), P("F")))),
        ),
        conclusions=(seg_eq(segment(P("A"), P("B")), segment(P("E"), P("F"))),),
    )
    proof = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("seg_eq", ("A", "B", "E", "F")),
                rule_id="SEG_TRANS",
                inst=InstAst(("A", "B", "C", "D", "E", "F")),
                refs=(Ref("sym", "h1"), LBL("h2")),
                line=1,
            ),
        ),
        qed_refs=(LBL("s1"),),
    )
    report = check_proof(stmt, proof)
    assert report.status == "ok"


def _extend_chain(steps: int) -> str:
    """`extend` plus `ARM_SUBST` pairs along one line through A and B, in
    the shape of perfbench's extend_script: each ARM_SUBST needs
    noncollinear(v, w, C), which strict mode derives by NC_TRANSFER."""
    lines = [
        "theorem chain",
        "  tags: neutral",
        "  points A B C",
        "  assume h1: noncollinear A B C",
        "  show seg A B == seg A B",
        "  proof",
    ]
    chain = ["A", "B"]
    for k in range(1, steps // 2 + 1):
        v, m, w = chain[-2], chain[-1], f"Q{k}"
        seg = ("A B", "A C", "B C")[k % 3]
        lines.append(f"    e{k}: extend {v} {m} by seg {seg} as {w}")
        lines.append(f"    a{k}: ang {w} {v} C == ang {m} {v} C by ARM_SUBST[{v},{w},{m},C] from e{k}")
        chain.append(w)
    lines.append("    g: seg A B == seg A B by SEG_REFL[A,B] from refl")
    lines.append("  qed from g")
    return "\n".join(lines) + "\n"


def test_long_chain_check_makes_no_python_hash_or_eq_calls():
    """Facts, terms and points hash and compare in C: checking a
    1000-step chain calls no __hash__ or __eq__ written in Python."""
    ast = parse(_extend_chain(1000))
    blocks = elaborate_script(ast)
    (block,), registry = blocks, collect_statements(blocks)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("__hash__", "__eq__"):
            calls.append((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        report = check_proof(block.statement, block.proof, registry, strict=True)
    finally:
        sys.setprofile(None)
    assert report.status == "ok", report.error
    assert len(calls) == 0, sorted(set(calls))


def test_long_chain_builds_no_dataclass_per_node_or_step():
    """No class in any ponscheck module is a dataclass, and parsing,
    elaborating and strictly checking a 1000-step chain builds no object
    per node or step other than a tuple."""
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(ponscheck.__path__, "ponscheck.")
        if info.name != "ponscheck.__main__"  # importing it runs the CLI
    ]
    assert len(modules) >= 10
    for module in (ponscheck, *modules):
        for obj in vars(module).values():
            assert not (isinstance(obj, type) and dataclasses.is_dataclass(obj)), obj

    text = _extend_chain(1000)
    built = Counter()

    def profile(frame, event, arg):
        # an __init__, or a NamedTuple's __new__ (a lambda whose first argument is _cls)
        code = frame.f_code
        if event == "call" and (code.co_name == "__init__" or code.co_varnames[:1] == ("_cls",)):
            local = frame.f_locals
            cls = local["_cls"] if "_cls" in local else type(local.get("self"))
            if getattr(cls, "__module__", "").startswith("ponscheck"):
                built[cls] += 1

    sys.setprofile(profile)
    try:
        ast = parse(text)
        blocks = elaborate_script(ast)
        (block,), registry = blocks, collect_statements(blocks)
        report = check_proof(block.statement, block.proof, registry, strict=True)
    finally:
        sys.setprofile(None)
    assert report.status == "ok", report.error
    per_step = [cls for cls, n in built.items() if n >= 1000]
    assert all(issubclass(cls, tuple) for cls in per_step), built
    assert built[StepResult] == 1001  # the hook does see each tuple built
