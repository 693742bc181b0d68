"""Rule schemas and the proof-checking kernel."""

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import io
import pkgutil
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from oracles import dict_subst_fact

import ponscheck

from ponscheck import cli
from ponscheck.kernel import (
    CaseBranch,
    CasesStep,
    ExtendStep,
    FactAst,
    LayoffStep,
    LemmaStep,
    Proof,
    RuleStep,
    SideConditionRecord,
    StepResult,
    TheoremStatement,
    check_proof,
)
from ponscheck.elaborate import collect_statements, elaborate_script
from ponscheck.rules import RULE_IDS, RULES, RuleSchema, _rule
from ponscheck.corpus import PROOF_FILENAMES, load_text
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
    written_fact,
)

P = PointId

EXPECTED_RULES = (
    "ABSURD_LT_EQ_ANG",
    "ABSURD_LT_EQ_SEG",
    "ANG_REFL",
    "ANG_TRANS",
    "ARM_SUBST",
    "ASA_ORD",
    "LT_SUBST_ANG",
    "LT_SUBST_SEG",
    "NC_TRANSFER",
    "SAS_ORD",
    "SEG_REFL",
    "SEG_SUM",
    "SEG_TRANS",
    "SUPP_CONG",
    "WHOLE_PART_ANG",
    "WHOLE_PART_SEG",
)


def test_rule_inventory_is_closed():
    assert RULE_IDS == EXPECTED_RULES


@pytest.mark.parametrize(
    "schema",
    [
        # the symmetry rules the inventory once had: equalities are
        # canonical, so each concludes exactly its premise
        RuleSchema(
            "SEG_SYM", ("a", "b", "c", "d"),
            premises=(written_fact("seg_eq", ("a", "b", "c", "d")),),
            side_conditions=(),
            conclusions=(written_fact("seg_eq", ("c", "d", "a", "b")),),
        ),
        RuleSchema(
            "ANG_SYM", ("a", "v", "b", "c", "w", "d"),
            premises=(written_fact("ang_eq", ("a", "v", "b", "c", "w", "d")),),
            side_conditions=(),
            conclusions=(written_fact("ang_eq", ("c", "w", "d", "a", "v", "b")),),
        ),
        # two conclusions, each a premise written another way
        RuleSchema(
            "SEG_TWICE", ("a", "b", "c", "d"),
            premises=(
                written_fact("seg_eq", ("a", "b", "c", "d")),
                written_fact("seg_lt", ("a", "b", "a", "c")),
            ),
            side_conditions=(),
            conclusions=(
                written_fact("seg_lt", ("a", "b", "a", "c")),
                written_fact("seg_eq", ("d", "c", "b", "a")),
            ),
        ),
    ],
    ids=lambda s: s.rule_id,
)
def test_an_identity_schema_is_refused(schema):
    with pytest.raises(ValueError, match="concludes only its own premises"):
        _rule(schema)
    assert schema.rule_id not in RULES


def test_rule_arity_enforced():
    """A step naming too few or too many points fails as ArityMismatch, not
    as DegenerateInstantiation, whose points coincide."""
    step = _pons_proof().steps[0]
    for inst in (("A", "B"), ("A", "B", "C", "A", "C", "B", "C")):
        proof = Proof((step._replace(points=inst),), ("s1",), 2)
        report = check_proof(_pons_statement(), proof)
        detail = f"ArityMismatch: SAS_ORD expects 6 points, got {len(inst)}"
        assert report.steps == [StepResult("s1", False, detail, 1)]


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
        identity = schema.variables
        assert schema.instantiate_premises(identity) == schema.premises
        assert schema.instantiate_conclusions(identity) == schema.conclusions
        assert schema.instantiate_side_conditions(identity) == schema.side_conditions
        assert tuple(identity[i] for i in schema.collinear_side_at) == schema.collinear_side


def _outcome(build):
    """What build() returns, or the class and message of its ValueError."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


LETTERS = "ABCDEFGHIJKL"


@functools.cache
def _corpus_statements():
    blocks = [b for fn in PROOF_FILENAMES for b in elaborate_script(parse(load_text(fn)))]
    return [s for s in collect_statements(blocks).values() if s is not None]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, len(LETTERS)).flatmap(
        lambda k: st.lists(st.sampled_from(LETTERS[:k]), min_size=12, max_size=12)
    ),
    st.integers(0, 10**6),
)
def test_positional_instantiation_matches_the_dict_reference(drawn, pick):
    """Every schema at drawn points (often collapsing ones) and the facts of
    a corpus statement under a drawn map give the facts and triples of the
    dict-based reference renaming, or the same error class and message."""
    for schema in RULES.values():
        points = tuple(drawn[: len(schema.variables)])
        b = dict(zip(schema.variables, points))
        pairs = [
            (lambda: schema.instantiate_premises(points),
             lambda: tuple(dict_subst_fact(f, b) for f in schema.premises)),
            (lambda: schema.instantiate_conclusions(points),
             lambda: tuple(dict_subst_fact(f, b) for f in schema.conclusions)),
            (lambda: schema.instantiate_side_conditions(points),
             lambda: tuple((b[x], b[y], b[z]) for x, y, z in schema.side_conditions)),
        ]
        for positional, reference in pairs:
            assert _outcome(positional) == _outcome(reference), schema.rule_id
        assert [points[i] for i in schema.collinear_side_at] == [b[v] for v in schema.collinear_side]
    statements = _corpus_statements()
    lemma = statements[pick % len(statements)]
    mapping = dict(zip(lemma.points + lemma.introduced, drawn))
    for fact in [f for _, f in lemma.hypotheses] + list(lemma.conclusions):
        assert _outcome(lambda: subst_fact(fact, mapping)) == _outcome(
            lambda: dict_subst_fact(fact, mapping)
        ), (lemma.name, fact)


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
        points=("A", "B", "C", "A", "C", "B"), triples=False,
        refs=("h1", "h1", "refl"),
        line=1,
    )
    return Proof(steps=(step,), qed_refs=("s1",), line=2)


def test_mirror_sas_closes_pons():
    report = check_proof(_pons_statement(), _pons_proof())
    assert report.status == "ok"
    assert "SAS_ORD" in report.rule_uses
    assert all(sr.ok for sr in report.steps)


_AB, _AD, _BD = segment(P("A"), P("B")), segment(P("A"), P("D")), segment(P("B"), P("D"))
_NC = ("h1", non_collinear(P("A"), P("B"), P("C")))


def _statement(name, hypotheses, conclusions):
    return TheoremStatement(
        name=name, points=("A", "B", "C"),
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
        Proof((), ("h1",)), {},
    ),
    "conclusion": lambda: (
        _statement("concl", (_NC,), (seg_eq(_BD, _AB),)),
        Proof((ExtendStep("e1", "A", "B", ("A", "B"), "D", 1),), ("e1",)), {},
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
                points=("A", "B", "C", "A", "C", "B"), triples=False,
                refs=("nope", "h1", "refl"),
                line=1,
            ),
        ),
        qed_refs=("s1",),
    )
    report = check_proof(_pons_statement(), bad)
    assert report.status == "failed"
    assert "nope" in (report.error or "")


_BOUNDED = TheoremStatement(
    name="bounded",
    points=("A", "B", "C"),
    hypotheses=(_NC, ("h3", seg_lt(_AB, segment(P("A"), P("C"))))),
    conclusions=(_NC[1],),
)


def _closes(lt_refs):
    """A split whose three branches close the goal, `lt` from `lt_refs`."""
    branches = tuple(
        CaseBranch(kind, (), "goal", lt_refs if kind == "lt" else ("h1",), 3 + i)
        for i, kind in enumerate(("lt", "eq", "gt"))
    )
    return Proof((CasesStep("c1", ("A", "B"), ("A", "C"), branches, 2),), ("c1",), 6)


# Each cites r9, which names nothing, after a citation that alone covers.
CITES_AFTER_A_COVERING_ONE = {
    "qed": lambda refs: Proof((), refs, 2),
    "close": _closes,
    "layoff": lambda refs: Proof(
        (LayoffStep("l1", "A", "C", ("A", "B"), "D", refs, 2),), ("h1",), 3
    ),
}


@pytest.mark.parametrize("where", sorted(CITES_AFTER_A_COVERING_ONE))
def test_every_cited_label_must_resolve(where):
    make = CITES_AFTER_A_COVERING_ONE[where]
    covering = "h3" if where == "layoff" else "h1"
    assert check_proof(_BOUNDED, make((covering,))).status == "ok"
    report = check_proof(_BOUNDED, make((covering, "r9")))
    assert report.status == "failed"
    assert "no step or hypothesis labeled r9" in report.error


def test_premise_mismatch_fails():
    bad = Proof(
        steps=(
            RuleStep(
                label="s1",
                fact=FactAst("ang_eq", ("A", "B", "C", "A", "C", "B")),
                rule_id="SAS_ORD",
                points=("A", "B", "C", "A", "C", "B"), triples=False,
                refs=("h2", "h1", "refl"),
                line=1,
            ),
        ),
        qed_refs=("s1",),
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
                points=("A", "B", "C", "A", "C", "B"), triples=False,
                refs=("refl", "h1", "refl"),
                line=1,
            ),
        ),
        qed_refs=("s1",),
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
                points=("A", "B", "C", "A", "C", "B"), triples=False,
                refs=("h1", "h1", "refl"),
                line=1,
            ),
        ),
        qed_refs=("s1",),
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
                points=("A", "A", "C", "A", "C", "A"), triples=False,
                refs=("h1", "h1", "refl"),
                line=1,
            ),
        ),
        qed_refs=("s1",),
    )
    report = check_proof(_pons_statement(), bad)
    assert report.status == "failed"


def test_qed_must_cover_conclusions():
    proof = Proof(steps=_pons_proof().steps, qed_refs=("h1",))
    report = check_proof(_pons_statement(), proof)
    assert report.status == "failed"


def test_side_condition_assumed_permissive_failed_strict():
    # same proof but the statement gives no noncollinearity hypothesis
    stmt = TheoremStatement(
        name="pons_degenerate",
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
                points=("A", "D", "C", "A", "C", "D"), triples=False,
                refs=("h3", "h3", "refl"),
                line=1,
            ),
        ),
        qed_refs=("s1",),
    )
    report = check_proof(stmt, proof, strict=True)
    assert report.status == "ok"
    assert "NC_TRANSFER" in report.rule_uses
    assert any(rec.outcome == "derived" for rec in report.side_conditions)
    assert not report.assumed


_H1 = ("h1", seg_eq(_AB, segment(P("A"), P("C"))))
_ABC = ("A", "B", "C")

# The mirror SAS step s1 of _pons_proof cites refl for its angle premise
# (ANG_REFL) and asks noncollinear(A,B,C) twice.
# name: (hypotheses, strict, side-condition records as (step, triple,
# outcome), assumed, rule_uses, the failed step's detail or None)
SIDE_CONDITIONS = {
    "known": (
        (_H1, ("h2", _NC[1])), True, [("s1", _ABC, "derived")] * 2, [],
        ("ANG_REFL", "SAS_ORD"), None,
    ),
    "assumed": (
        (_H1,), False, [("s1", _ABC, "assumed")] * 2, [_ABC], ("ANG_REFL", "SAS_ORD"), None,
    ),
    "on a recorded line": (
        (_H1, ("h2", between(P("B"), P("A"), P("C")))), False,
        [("s1", _ABC, "failed")], [], ("ANG_REFL",),
        "SideConditionFailed: cannot justify noncollinear(A,B,C)",
    ),
    "strict": (
        (_H1,), True, [("s1", _ABC, "failed")], [], ("ANG_REFL",),
        "SideConditionFailed: cannot justify noncollinear(A,B,C) (strict mode)",
    ),
}


@pytest.mark.parametrize("case", sorted(SIDE_CONDITIONS))
def test_side_condition_records_are_pinned(case):
    hypotheses, strict, records, assumed, rule_uses, detail = SIDE_CONDITIONS[case]
    statement = _statement("sides", hypotheses, ())
    report = check_proof(statement, Proof(_pons_proof().steps, ()), strict=strict)
    assert report.side_conditions == [SideConditionRecord(*r) for r in records]
    assert list(report.assumed) == assumed
    assert report.rule_uses == rule_uses
    assert report.steps == [StepResult("s1", detail is None, detail or "", 1)]


def test_a_transferred_side_condition_is_known_afterwards():
    """The first noncollinear(A,C,D) obligation is derived by an NC_TRANSFER
    probe, which makes the fact known: the second is derived from the known
    set, and a lemma whose hypothesis it is applies."""
    nc = lambda x, y, z: non_collinear(P(x), P(y), P(z))
    lemma = TheoremStatement("nc", _ABC, (("h", nc(*_ABC)),), (nc(*_ABC),))
    statement = TheoremStatement(
        name="transfer",
        points=("A", "B", "C", "D"),
        hypotheses=(
            ("h1", nc("A", "B", "C")),
            ("h2", between(P("D"), P("A"), P("B"))),
            ("h3", seg_eq(_AD, segment(P("A"), P("C")))),
        ),
        conclusions=(),
    )
    sas = ("A", "D", "C", "A", "C", "D")
    proof = Proof(
        (
            RuleStep("s1", FactAst("ang_eq", sas), "SAS_ORD", sas, False,
                     ("h3", "h3", "refl"), 1),
            LemmaStep("l1", "nc", ("A", "C", "D"), (), 2),
        ),
        (),
    )
    report = check_proof(statement, proof, {"nc": lemma}, strict=True)
    assert report.status == "ok", report.error
    assert report.side_conditions == [SideConditionRecord("s1", ("A", "C", "D"), "derived")] * 2
    assert list(report.assumed) == []
    assert report.rule_uses == ("ANG_REFL", "NC_TRANSFER", "SAS_ORD")
    assert report.lemma_uses == ("nc",)


def _statement_with_lt() -> TheoremStatement:
    return TheoremStatement(
        name="lay",
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
                refs=("h1",),
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
        points=("A", "B", "D"), triples=False,
        refs=("e1",),
        line=2,
    )
    report = check_proof(stmt, Proof(steps=(ext, s2), qed_refs=()))
    assert report.status == "ok"


def test_absurd_outside_case_analysis_fails():
    stmt = TheoremStatement(
        name="oops",
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
                points=("A", "B", "C", "D"), triples=False,
                refs=("h1", "h2"),
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
        points=("A", "B", "C", "D") if which == "l" else ("C", "D", "A", "B"), triples=False,
        refs=(
            "c1.lt" if which == "l" else "c1.gt",
            "h1",
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
                close_refs=("l1",),
                line=2,
            ),
            CaseBranch(
                kind="eq", steps=(), close_kind="goal", close_refs=("c1.eq",), line=4
            ),
            CaseBranch(
                kind="gt",
                steps=(mk_absurd("g"),),
                close_kind="absurd",
                close_refs=("g1",),
                line=5,
            ),
        ),
        line=1,
    )
    proof = Proof(steps=(cases,), qed_refs=("c1",))
    report = check_proof(stmt, proof)
    assert report.status == "ok"
    assert "ABSURD_LT_EQ_SEG" in report.rule_uses


def test_cases_open_branch_fails():
    stmt = TheoremStatement(
        name="tri_open",
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
            CaseBranch(kind="lt", steps=(), close_kind="goal", close_refs=("h1",), line=2),
            CaseBranch(kind="eq", steps=(), close_kind="goal", close_refs=("c1.eq",), line=3),
            CaseBranch(kind="gt", steps=(), close_kind="absurd", close_refs=("h1",), line=4),
        ),
        line=1,
    )
    # gt branch cites a non-absurd fact to close an absurd branch
    report = check_proof(stmt, Proof(steps=(cases,), qed_refs=("c1",)))
    assert report.status == "failed"


def test_lemma_step_instantiates_conclusions():
    helper = TheoremStatement(
        name="foot",
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
        points=("X", "Y", "Z"),
        hypotheses=(("h1", non_collinear(P("X"), P("Y"), P("Z"))),),
        conclusions=(between(P("M"), P("Y"), P("Z")),),
        introduced=("M",),
    )
    proof = Proof(
        steps=(
            LemmaStep(label="l1", lemma="foot", args=("X", "Y", "Z"), fresh=("M",), line=1),
        ),
        qed_refs=("l1",),
    )
    report = check_proof(stmt, proof, registry={"foot": helper})
    assert report.status == "ok"
    assert report.lemma_uses == ("foot",)


def test_lemma_hypotheses_must_be_satisfied():
    helper = TheoremStatement(
        name="foot",
        points=("A", "B", "C"),
        hypotheses=(("h1", non_collinear(P("A"), P("B"), P("C"))),),
        conclusions=(between(P("H"), P("B"), P("C")),),
        introduced=("H",),
    )
    stmt = TheoremStatement(
        name="no_hyp",
        points=("X", "Y", "Z"),
        hypotheses=(),  # nothing establishes noncollinearity
        conclusions=(between(P("M"), P("Y"), P("Z")),),
        introduced=("M",),
    )
    proof = Proof(
        steps=(
            LemmaStep(label="l1", lemma="foot", args=("X", "Y", "Z"), fresh=("M",), line=1),
        ),
        qed_refs=("l1",),
    )
    report = check_proof(stmt, proof, registry={"foot": helper})
    assert report.status == "failed"


def test_unknown_lemma_fails():
    stmt = TheoremStatement(
        name="ghost",
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


def test_label_matches_equality_either_way():
    """A label cited for `x == y` also yields `y == x`: both premises of
    this SEG_TRANS are the hypotheses flipped, and nothing but SEG_TRANS
    enters the rule uses."""
    stmt = TheoremStatement(
        name="flipped",
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
                fact=FactAst("seg_eq", ("E", "F", "A", "B")),
                rule_id="SEG_TRANS",
                points=("E", "F", "C", "D", "A", "B"), triples=False,
                refs=("h2", "h1"),
                line=1,
            ),
        ),
        qed_refs=("s1",),
    )
    report = check_proof(stmt, proof)
    assert report.status == "ok"
    assert report.rule_uses == ("SEG_TRANS",)


def _extend_chain(steps: int, defect_at: int = 0) -> str:
    """`extend` plus `ARM_SUBST` pairs along one line through A and B, in
    the shape of perfbench's extend_script: each ARM_SUBST needs
    noncollinear(v, w, C), which strict mode derives by NC_TRANSFER.  The
    ARM_SUBST of pair `defect_at` names A instead of C, which is on the
    line, so its side condition fails."""
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
        z = "A" if k == defect_at else "C"
        lines.append(f"    a{k}: ang {w} {v} {z} == ang {m} {v} {z}"
                     f" by ARM_SUBST[{v},{w},{m},{z}] from e{k}")
        chain.append(w)
    lines.append("    g: seg A B == seg A B by SEG_REFL[A,B] from refl")
    lines.append("  qed from g")
    return "\n".join(lines) + "\n"


def test_a_strict_chain_instantiates_each_rule_step_once(monkeypatch):
    """A strict check of the 2000-step chain instantiates the premises and
    the conclusions of each ARM_SUBST step once, at the step's points."""
    blocks = elaborate_script(parse(_extend_chain(2000)))
    (block,), registry = blocks, collect_statements(blocks)
    calls = Counter()
    for name in ("instantiate_premises", "instantiate_conclusions"):
        def spy(self, points, name=name, method=getattr(RuleSchema, name)):
            assert type(points) is tuple and len(points) == len(self.variables)
            calls[name, self.rule_id] += 1
            return method(self, points)

        monkeypatch.setattr(RuleSchema, name, spy)
    report = check_proof(block.statement, block.proof, registry, strict=True)
    assert report.status == "ok", report.error
    assert calls == {
        ("instantiate_premises", "ARM_SUBST"): 1000,
        ("instantiate_conclusions", "ARM_SUBST"): 1000,
        ("instantiate_conclusions", "SEG_REFL"): 1,
    }


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
    # the hook does see each tuple built: one record per ARM_SUBST side condition
    assert built[SideConditionRecord] == 500


# ---------------------------------------------------------------------------
# A rule step wrong in two ways reports the check that runs first, and a
# premise-free rule takes a lone `refl` and no other citation.

_ABSURD_PAIR = TheoremStatement(
    name="pair",
    points=("A", "B", "C", "D"),
    hypotheses=(
        ("h1", seg_lt(_AB, segment(P("C"), P("D")))),
        ("h2", seg_eq(_AB, segment(P("C"), P("D")))),
    ),
    conclusions=(),
)
_NO_NC = TheoremStatement(
    name="pons_degenerate",
    points=("A", "B", "C"),
    hypotheses=(("h1", seg_eq(_AB, segment(P("A"), P("C")))),),
    conclusions=(),
)
_MIRROR = ("A", "B", "C", "A", "C", "B")

# name: (statement, strict, fact, rule, inst, refs, the error the step reports)
TWO_WAYS_WRONG = {
    "point out of scope, unknown rule": (
        _pons_statement(), False, ("seg_eq", ("A", "Z", "A", "Z")), "NO_SUCH_RULE", ("A", "Z"),
        ("refl",),
        "KernelError: point Z is not in scope",
    ),
    "degenerate instantiation, premise count": (
        _pons_statement(), False, ("ang_eq", _MIRROR), "SAS_ORD", ("A", "A", "C", "A", "C", "A"),
        ("h1", "h1"),
        "DegenerateInstantiation: segment endpoints coincide: A",
    ),
    "unknown label, premise mismatch": (
        _pons_statement(), False, ("ang_eq", _MIRROR), "SAS_ORD", _MIRROR,
        ("h2", "nope", "refl"),
        "UnknownPremise: no step or hypothesis labeled nope",
    ),
    "strict side condition, conclusion mismatch": (
        _NO_NC, True, ("seg_eq", ("A", "B", "A", "C")), "SAS_ORD", _MIRROR,
        ("h1", "h1", "refl"),
        "SideConditionFailed: cannot justify noncollinear(A,B,C) (strict mode)",
    ),
    "absurd outside a case, conclusion mismatch": (
        _ABSURD_PAIR, False, ("seg_eq", ("A", "B", "C", "D")), "ABSURD_LT_EQ_SEG",
        ("A", "B", "C", "D"),
        ("h1", "h2"),
        "AbsurdOutsideCase: absurdity derived outside any case assumption",
    ),
    "label cited for a premise-free rule": (
        _pons_statement(), False, ("seg_eq", ("A", "B", "A", "B")), "SEG_REFL", ("A", "B"),
        ("h1",),
        "PremiseMismatch: SEG_REFL takes 0 premise(s), 1 cited",
    ),
    "refl and a label cited for a premise-free rule": (
        _pons_statement(), False, ("seg_eq", ("A", "B", "A", "B")), "SEG_REFL", ("A", "B"),
        ("refl", "h1"),
        "PremiseMismatch: SEG_REFL takes 0 premise(s), 2 cited",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_WAYS_WRONG))
def test_a_step_wrong_in_two_ways_reports_the_first_check(case):
    statement, strict, (kind, points), rule, inst, refs, detail = TWO_WAYS_WRONG[case]
    step = RuleStep("s1", FactAst(kind, points), rule, inst, False, refs, 4)
    report = check_proof(statement, Proof((step,), ("s1",), 5), strict=strict)
    assert report.status == "failed"
    assert report.steps == [StepResult("s1", False, detail, 4)]
    assert report.error == f"s1 (line 4): {detail}"


def test_a_lone_refl_justifies_a_premise_free_rule():
    fact = FactAst("seg_eq", ("B", "A", "A", "B"))
    step = RuleStep("s1", fact, "SEG_REFL", ("A", "B"), False, ("refl",), 4)
    statement = _statement("r", (_NC,), (seg_eq(_AB, _AB),))
    report = check_proof(statement, Proof((step,), ("s1",), 5))
    assert report.status == "ok", report.error
    assert report.rule_uses == ("SEG_REFL",)


def test_assumed_side_conditions_are_listed_once_in_first_seen_order():
    """A non-strict proof that assumes noncollinear(A,B,C) at several steps,
    and two other triples once each, lists each triple once, in the order
    the steps first assumed it."""
    pons = ("ang_eq", _MIRROR), "SAS_ORD", _MIRROR, ("h1", "h1", "refl")
    steps = [
        ("s1", *pons),
        ("s2", ("seg_eq", ("A", "D", "A", "D")), "SAS_ORD", ("B", "A", "D") * 2, ("refl",) * 3),
        ("s3", *pons),
        ("s4", ("ang_eq", ("D", "C", "A", "D", "C", "A")), "ANG_REFL", ("D", "C", "A"), ("refl",)),
        ("s5", ("seg_eq", ("A", "D", "A", "D")), "SAS_ORD", ("C", "A", "D") * 2, ("refl",) * 3),
        ("s6", *pons),
    ]
    statement = TheoremStatement(
        name="assumes",
        points=("A", "B", "C", "D"),
        hypotheses=(("h1", seg_eq(_AB, segment(P("A"), P("C")))),),
        conclusions=(),
    )
    proof = Proof(
        tuple(RuleStep(label, FactAst(*fact), rule, inst, False, refs, i + 1)
              for i, (label, fact, rule, inst, refs) in enumerate(steps)),
        (), 9,
    )
    report = check_proof(statement, proof)
    assert report.status == "ok", report.error
    assert list(report.assumed) == [("A", "B", "C"), ("A", "B", "D"), ("A", "C", "D")]
    assert [(r.step, r.outcome) for r in report.side_conditions] == [
        (s, "assumed") for s in ("s1", "s1", "s2", "s2", "s3", "s3", "s5", "s5", "s6", "s6")
    ]


def _cases_chain(steps: int, defect_at: int = 0) -> str:
    """Trichotomy splits that close every branch on the goal from the
    hypothesis; the `gt` branch of split `defect_at` cites its own
    assumption instead, which does not establish the goal."""
    lines = [
        "theorem splits",
        "  tags: neutral",
        "  points A B C",
        "  assume h1: seg A B == seg A C",
        "  show seg A B == seg A C",
        "  proof",
    ]
    pairs = ("seg A B vs seg A C", "seg A C vs seg A B", "seg B C vs seg A B", "seg A B vs seg B C")
    for k in range(1, steps + 1):
        lines.append(f"    c{k}: cases {pairs[k % 4]}")
        for kind in ("lt", "eq", "gt"):
            cite = f"c{k}.gt" if (k, kind) == (defect_at, "gt") else "h1"
            lines += [f"    case {kind}", f"      close goal from {cite}"]
    lines.append(f"  qed from c{steps}")
    return "\n".join(lines) + "\n"


def _refl_chain(steps: int, defect_at: int = 0) -> str:
    """SEG_REFL steps on segments of A B C D; step `defect_at` states an
    equality of two different segments, which SEG_REFL does not yield."""
    lines = [
        "theorem refls",
        "  tags: neutral",
        "  points A B C D",
        "  assume h1: noncollinear A B C",
        "  show seg A B == seg A B",
        "  proof",
    ]
    pairs = ("A B", "C A", "B D", "D C", "B C", "A D")
    for k in range(1, steps):
        x, y = pairs[k % 6].split()
        right = f"{x} {y}"
        if k == defect_at:
            right = f"{x} {next(p for p in 'ABCD' if p not in (x, y))}"
        lines.append(f"    r{k}: seg {x} {y} == seg {right} by SEG_REFL[{x},{y}] from refl")
    lines.append(f"    r{steps}: seg A B == seg A B by SEG_REFL[A,B] from refl")
    lines.append(f"  qed from r{steps}")
    return "\n".join(lines) + "\n"


# sha256 of the output of `check --strict-degeneracy`, of the same with
# `--json`, and of `deps`, on 1000-step scripts of each shape, clean and
# with one defect, with the exit codes.
LONG_PROOF_DIGESTS = {
    ('extend', 0): [
        (0, '7bca99f062bd40fcbd8aa82e372a3bb2e8004267e86b53c3dd60b710cc00fdd1'),
        (0, 'a459f76d41a702311375907a58bde9140ecef2312d5305309414fd39981f894e'),
        (0, '3861528ebf09a610f2285bc519bb7f72cf69d8e1ea25d282f0d3c2ef16cb0607'),
    ],
    ('extend', 397): [
        (1, '899e137b34455ef6aea43e13d69901aaa6401b84d637d8e5e13dc1e52f752fd2'),
        (1, '0650c6292e3f4e3cff48db47c63ed385f65ff70b16e3560403c3a0986f3b203c'),
        (0, '3861528ebf09a610f2285bc519bb7f72cf69d8e1ea25d282f0d3c2ef16cb0607'),
    ],
    ('cases', 0): [
        (0, 'fbc725f2eeecdc6400329c31ec55723e74cef3f50da3d4f5f023a2d79422d977'),
        (0, '50277063c53d71bbb0d3f553ec0a152df3c7d91aa57331a1c5f1be4a6936105f'),
        (0, '663617486b04f57ae995db34c54645225134ef8a5e70c31de02a44a71d4d6e45'),
    ],
    ('cases', 397): [
        (1, 'ac615ac162c84c30b8323616190e1f4e64b7d4754f858abada851d7d78df3984'),
        (1, '37e49d452b6cf772bef0a0130270e0a12df359330deea0db89e7c500f684ed89'),
        (0, '663617486b04f57ae995db34c54645225134ef8a5e70c31de02a44a71d4d6e45'),
    ],
    ('refl', 0): [
        (0, '227f6d922be602804952fe7da77ce948d7f49c240ac7cfdb3e79f9982dd6621c'),
        (0, 'f974829cb9d186e4e0cce53ddab9690a4ede411305361902f4bd5fc8dfe00d01'),
        (0, '13be8a026c984312fcfad917a826f4f0c2a8124fd26f506083917ec9b58d89d2'),
    ],
    ('refl', 397): [
        (1, 'a1c5c6ee1254b79dc4430a0d2573c94f0d464d34ed3d1e0779fa4caa497d2fc9'),
        (1, 'b46632dbbca16a3969c150c4014abb5a913c97e8f319c03846791511e33992ff'),
        (0, '13be8a026c984312fcfad917a826f4f0c2a8124fd26f506083917ec9b58d89d2'),
    ],
}


@pytest.mark.parametrize("shape", ["extend", "cases", "refl"])
@pytest.mark.parametrize("defect_at", [0, 397])
def test_long_proof_output_digests_are_pinned(tmp_path, shape, defect_at):
    make = {"extend": _extend_chain, "cases": _cases_chain, "refl": _refl_chain}[shape]
    path = tmp_path / f"{shape}.proof"
    path.write_text(make(1000, defect_at))
    got = []
    strict = ["check", "--strict-degeneracy"]
    for argv in (strict, [*strict, "--json"], ["deps"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, str(path)])
        got.append((code, hashlib.sha256(out.getvalue().encode()).hexdigest()))
    assert got == LONG_PROOF_DIGESTS[shape, defect_at]
