"""Syntax nodes and proof steps are immutable tuples: hashable, equal only
to instances of their own class, and equal whatever source line they were
read from.  Statements, blocks, reports and the other records are
immutable tuples too, with the equality their dataclasses had."""

import itertools

import pytest

from ponscheck import corpus, depgraph, elaborate, models, rules
from ponscheck import kernel as K
from ponscheck import script as S
from ponscheck.terms import seg_eq, segment

SCRIPT = """\
theorem build
  tags: neutral
  points A B C D
  assume h1: seg C D < seg A B
  show seg A B == seg A B
  proof
    e1: extend A B by seg A B as E
    l1: layoff A toward B by seg C D as F from h1
    m1: lemma foot(A,B,C) as H
    c1: cases seg A B vs seg C D
    case lt
      x1: seg A B == seg A B by SEG_REFL[A,B] from refl
      close absurd from x1
    case eq
      close goal from c1.eq
    case gt
      close goal from c1.gt
  qed from c1
"""

FACT = K.FactAst("seg_eq", ("A", "B", "A", "C"))
REFS = ("h1", "c1.lt", "refl")  # citations are names
KSTEP = K.ExtendStep("e1", "A", "B", ("A", "C"), "D", 5)

SYNTAX_NODES = [S.AssumeAst("h1", FACT, 3)]
KERNEL_NODES = [
    FACT,
    K.RuleStep("s1", FACT, "SEG_TRANS", ("A", "B", "A", "C", "A", "C"), False, REFS[:1], 4),
    KSTEP,
    K.LayoffStep("l1", "A", "C", ("A", "B"), "D", REFS[:1], 6),
    K.LemmaStep("m1", "foot", ("A", "B", "C"), ("H",), 7),
    K.CaseBranch("lt", (KSTEP,), "goal", REFS[:1], 8),
    K.CasesStep("c1", ("A", "B"), ("A", "C"), (K.CaseBranch("eq", (), "absurd", (), 9),), 9),
]
NODES = SYNTAX_NODES + KERNEL_NODES
# The steps of every kind and a case branch as the parser builds them from
# SCRIPT, source lines included; their ids carry an ``Ast`` suffix.
_PARSED_STEPS = S.parse(SCRIPT).items[0].proof.steps
_CASE_LT = _PARSED_STEPS[3].branches[0]
PARSED_NODES = [*_PARSED_STEPS, _CASE_LT, _CASE_LT.steps[0]]


def _id(node):
    return type(node).__name__


def _params(nodes):
    """The given nodes, then every parsed node (each of which has a line)."""
    return [pytest.param(n, id=_id(n)) for n in nodes] + [
        pytest.param(n, id=_id(n) + "Ast") for n in PARSED_NODES
    ]


def test_every_converted_class_is_covered():
    classes = {type(n) for n in NODES}
    assert len(classes) == 8
    assert all(issubclass(c, tuple) for c in classes)


@pytest.mark.parametrize("node", _params(NODES))
def test_fields_cannot_be_assigned(node):
    for name in node._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, getattr(node, name))
    with pytest.raises(AttributeError):
        node.extra = 1


@pytest.mark.parametrize("node", _params(NODES))
def test_nodes_hash_and_equal_their_copies(node):
    copy = type(node)(*node)
    assert copy == node and not copy != node
    assert hash(copy) == hash(node)
    assert len({node, copy}) == 1


@pytest.mark.parametrize("node", _params([n for n in NODES if "line" in n._fields]))
def test_nodes_ignore_their_line(node):
    moved = node._replace(line=node.line + 100)
    assert moved == node and not moved != node
    assert hash(moved) == hash(node)
    assert moved._replace(**{node._fields[0]: "zz"}) != node


def test_classes_with_the_same_field_values_stay_distinct():
    """Every pair of converted classes with the same field count (such as
    LayoffStep and RuleStep), filled with one tuple of values, and each
    class against the plain tuple."""
    pairs = 0
    for x, y in itertools.combinations(NODES, 2):
        if type(x) is type(y) or len(x) != len(y):
            continue
        y = type(y)._make(x)
        pairs += 1
        assert x != y and y != x
        assert not (x == y or y == x)
        assert len({x, y}) == 2
    assert pairs == 4
    for node in NODES:
        assert node != tuple(node) and tuple(node) != node


AB_AC = seg_eq(segment("A", "B"), segment("A", "C"))
STATEMENT = K.TheoremStatement("t", ("A", "B", "C"), (("h1", AB_AC),), (AB_AC,), ("D",))
PROOF = K.Proof((KSTEP,), REFS[:1], 9)
STEP_RESULT = K.StepResult("e1", True, "", 5)
# Records with plain tuple equality; every other one is a kernel.node.  The
# first two compare their line, as their dataclasses did; kernel imports
# rules, and corpus imports nothing of the checker.
TUPLE_EQUALITY = (K.StepResult, elaborate.ElaboratedBlock, rules.RuleSchema, corpus.CorpusEntry)
RECORDS = [
    STATEMENT,
    PROOF,
    STEP_RESULT,
    K.SideConditionRecord("s1", ("A", "B", "C"), "derived"),
    K.CheckReport("t", "ok", (STEP_RESULT,), ("SEG_TRANS",), ("foot",), ()),
    S.parse(SCRIPT),
    S.parse(SCRIPT).items[0],
    S.DeclareAst("d", ("euclidean",), ("t",), 2),
    S.ConjectureAst("angle_sum_pi", ("A", "B", "C"), 1),
    elaborate.ElaboratedBlock("t", ("neutral",), ("u",), STATEMENT, PROOF, 1),
    depgraph.Node("t", "theorem", frozenset({"NEUTRAL"})),
    rules.RULES["SEG_TRANS"],
    corpus.ENTRIES[-1],
    models.Counterexample(3, "seg(A,B) == seg(A,C)", (("A", (0.0, 0.5)), ("B", (0.25, 0.0)))),
]


def test_every_record_class_is_covered():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 14
    assert all(isinstance(r, tuple) for r in RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_record_fields_cannot_be_assigned(record):
    test_fields_cannot_be_assigned(record)


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_hash_and_equal_their_copies(record):
    test_nodes_hash_and_equal_their_copies(record)


@pytest.mark.parametrize("record", [r for r in RECORDS if "line" in r._fields], ids=_id)
def test_records_ignore_their_line_where_their_dataclass_did(record):
    moved = record._replace(line=record.line + 100)
    if isinstance(record, TUPLE_EQUALITY):
        assert moved != record and not moved == record
    else:
        test_nodes_ignore_their_line(record)


@pytest.mark.parametrize("record", [r for r in RECORDS if type(r) not in TUPLE_EQUALITY], ids=_id)
def test_records_equal_only_their_own_class(record):
    assert record != tuple(record) and tuple(record) != record
    assert not record == tuple(record)


def test_a_model_check_report_holds_only_its_counts():
    report = models.ModelCheckReport("euclidean", 5)
    report.skipped += 1
    assert (report.trials, report.trials_run, report.skipped) == (5, 0, 1)
    assert report.as_dict() == {"trials": 5, "trials_run": 0, "failures": 0, "skipped": 1}
    with pytest.raises(AttributeError):
        report.extra = 1
