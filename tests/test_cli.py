"""Command line surface: exit codes, output stability, and the
expected-divergence policy for euclidean-only claims."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import ponscheck
from ponscheck import cli, kernel
from ponscheck.cli import main
from ponscheck.elaborate import collect_statements, elaborate_script
from ponscheck.kernel import StepResult, check_proof
from ponscheck.models import model_check
from ponscheck.script import parse
from test_rules_kernel import _extend_chain

GOOD = """\
theorem mirror_pons
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  assume h2: noncollinear A B C
  show ang A B C == ang A C B
  proof
    s1: ang A B C == ang A C B by SAS_ORD[(A,B,C),(A,C,B)] from h1, h1, refl
  qed from s1
"""

CORPUS = os.path.join(os.path.dirname(ponscheck.__file__), "corpus")
ANGLESUM = os.path.join(CORPUS, "anglesum.conj")
EUCLID_I5 = os.path.join(CORPUS, "euclid_i5.proof")

BAD_CITATION = GOOD.replace("from h1, h1, refl", "from h1, h2, refl")

BAD_SYNTAX = """\
theorem broken
  tags: neutral
  points A B
  show seg A B == seg A B
  proof
    s1: seg A B == seg A B by
  qed from s1
"""


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "good.proof"
    p.write_text(GOOD)
    return str(p)


def test_check_good_file_exits_zero(good_file, capsys):
    assert main(["check", good_file]) == 0
    out = capsys.readouterr().out
    assert "mirror_pons: ok" in out


def test_check_corpus_exits_zero(capsys):
    assert main(["check", "--corpus", "--strict-degeneracy"]) == 0
    out = capsys.readouterr().out
    assert "euclid_i5: ok" in out
    assert "bisector_foot: stated" in out
    assert "parallel_postulate: stated" in out


def test_check_bad_citation_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.proof"
    p.write_text(BAD_CITATION)
    assert main(["check", str(p)]) == 1
    out = capsys.readouterr().out
    assert "mirror_pons: failed" in out
    assert "step s1" in out


def test_a_name_error_fails_only_its_own_block(tmp_path, capsys):
    """A proof citing a label that names nothing fails on its qed line;
    the other blocks, corpus included, keep their verdicts."""
    typo = GOOD.replace("mirror_pons", "typo").replace("qed from s1", "qed from r2")
    p = tmp_path / "two.proof"
    p.write_text(GOOD.replace("mirror_pons", "good") + "\n" + typo)
    assert main(["check", "--corpus", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "good: ok" in lines and "euclid_i5: ok" in lines
    failed = lines.index("typo: failed")
    assert lines[failed + 1] == "  error: qed (line 19): no step or hypothesis labeled r2"
    assert [line for line in lines if line.startswith("  ")] == [lines[failed + 1]]


def test_a_failed_qed_names_its_own_line(tmp_path, capsys):
    p = tmp_path / "late_qed.proof"
    text = GOOD.replace("  qed from s1", "\n  # the qed line follows a comment\n\n  qed from h1")
    p.write_text(text)
    assert text.splitlines()[11] == "  qed from h1"
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "  error: qed (line 12): qed: cited labels do not establish ang(A,B,C) == ang(A,C,B)"
    )


@pytest.mark.parametrize("command", ["check", "deps", "model"])
@pytest.mark.parametrize("tag", ["euclidean", "neutral"], ids=["conflicting", "identical"])
def test_a_repeated_declare_is_one_message(tmp_path, capsys, command, tag):
    p = tmp_path / "twice.proof"
    p.write_text(f"declare foo\n  tags: neutral\n\ndeclare foo\n  tags: {tag}\n")
    assert main([command, str(p)]) == 1
    assert capsys.readouterr() == ("", f"ponscheck: foo is defined twice: {p}:1 and {p}:4\n")


@pytest.mark.parametrize("command", ["check", "deps", "model"])
def test_a_theorem_and_a_declare_may_not_share_a_name(tmp_path, capsys, command):
    p = tmp_path / "shared.proof"
    p.write_text(GOOD + "\ndeclare mirror_pons\n  tags: neutral\n")
    assert main([command, str(p)]) == 1
    assert capsys.readouterr() == (
        "", f"ponscheck: mirror_pons is defined twice: {p}:1 and {p}:11\n"
    )


@pytest.mark.parametrize("command", ["check", "deps", "model"])
def test_a_block_named_after_a_rule_is_one_message(tmp_path, capsys, command):
    """A block may not take a proof rule's name: in the dependency graph it
    would stand for the rule the kernel checked other proofs against."""
    p = tmp_path / "rule.proof"
    p.write_text("declare SAS_ORD\n  tags: euclidean\n")
    assert main([command, "--corpus", str(p)]) == 1
    assert capsys.readouterr() == ("", f"ponscheck: SAS_ORD is the name of a rule: {p}:1\n")


@pytest.mark.parametrize("split", [False, True], ids=["one-file", "two-files"])
def test_a_theorem_defined_twice_is_one_message(tmp_path, capsys, split):
    a, b = tmp_path / "a.proof", tmp_path / "b.proof"
    a.write_text(GOOD if split else GOOD + "\n" + GOOD)
    b.write_text(GOOD if split else "")
    assert main(["check", str(a), str(b)]) == 1
    repeat = f"{b}:1" if split else f"{a}:11"
    assert capsys.readouterr() == (
        "", f"ponscheck: mirror_pons is defined twice: {a}:1 and {repeat}\n"
    )


BAD_STATEMENT = """\
theorem bad_stmt
  tags: neutral
  points A B
  assume h1: seg A B == seg A X
  show seg A B == seg A B
"""
DEGENERATE_STATEMENT = BAD_STATEMENT.replace(
    "seg A B == seg A X\n  show seg A B == seg A B", "seg A B == seg A B\n  show seg A A == seg A B"
)
DEGENERATE_HYPOTHESIS = BAD_STATEMENT.replace("seg A B == seg A X", "seg A A == seg A B")
UNKNOWN_SHOW_POINT = BAD_STATEMENT.replace(
    "seg A B == seg A X\n  show seg A B == seg A B", "seg A B == seg A B\n  show seg A B == seg A Y"
)
BAD_STATEMENT_ERRORS = {  # a `show` is placed on its block's line
    BAD_STATEMENT: "bad statement: bad_stmt: hypothesis h1 (line 14): mentions undeclared point X",
    DEGENERATE_STATEMENT: "bad statement: bad_stmt: show (line 11): segment endpoints coincide: A",
    DEGENERATE_HYPOTHESIS: (
        "bad statement: bad_stmt: hypothesis h1 (line 14): segment endpoints coincide: A"
    ),
    UNKNOWN_SHOW_POINT: "bad statement: bad_stmt: show (line 11): mentions undeclared point Y",
}


@pytest.mark.parametrize(
    "bad",
    BAD_STATEMENT_ERRORS,
    ids=["unknown-point", "degenerate", "degenerate-hypothesis", "unknown-show-point"],
)
def test_a_bad_statement_fails_only_its_own_block(tmp_path, capsys, bad):
    p = tmp_path / "two.proof"
    p.write_text(GOOD.replace("mirror_pons", "good") + "\n" + bad)
    assert main(["check", "--corpus", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "good: ok" in lines and "euclid_i5: ok" in lines
    failed = lines.index("bad_stmt: failed")
    assert lines[failed + 1] == "  error: " + BAD_STATEMENT_ERRORS[bad]
    assert [line for line in lines if line.startswith("  ")] == [lines[failed + 1]]

    assert main(["deps", str(p)]) == 0
    assert capsys.readouterr() == ("good: NEUTRAL\nbad_stmt: NEUTRAL\n", "")
    assert main(["model", "--trials", "5", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "good [euclidean] trials=5 failures=0 skipped=0" in captured.out
    assert "bad_stmt [poincare] proof-failed" in captured.out.splitlines()
    assert main(["check", "--json", str(p)]) == 1
    rows = json.loads(capsys.readouterr().out)["theorems"]
    assert [(row["name"], row["status"]) for row in rows] == [("good", "ok"), ("bad_stmt", "failed")]


def test_a_proof_citing_a_bad_statement_fails_at_that_step(tmp_path, capsys):
    p = tmp_path / "cites.proof"
    p.write_text(
        BAD_STATEMENT
        + "\ntheorem cites\n  tags: neutral\n  points A B\n  show seg A B == seg A B\n"
        "  proof\n    l1: lemma bad_stmt(A,B)\n    r1: seg A B == seg A B by SEG_REFL[A,B] from refl\n"
        "  qed from r1\n"
    )
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr() == (
        "bad_stmt: failed\n"
        "  error: bad statement: bad_stmt: hypothesis h1 (line 4): mentions undeclared point X\n"
        "cites: failed\n"
        "  step l1 (line 12): KernelError: lemma bad_stmt has a bad statement\n",
        "",
    )
    p.write_text(p.read_text().replace("lemma bad_stmt(A,B)", "lemma nosuch(A,B)"))
    assert main(["check", str(p)]) == 1
    assert "  step l1 (line 12): KernelError: unknown lemma nosuch\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, text, code",
    [
        ("good.proof", GOOD, 0),
        ("bad.proof", BAD_CITATION, 1),
        ("twice.proof", "declare foo\n  tags: neutral\n\ndeclare foo\n  tags: neutral\n", 1),
        ("broken.proof", BAD_SYNTAX, 2),
        ("mystery.conj", "conjecture no_such_claim\n  points A B C\n", 2),
    ],
    ids=["ok", "failed", "defined-twice", "syntax-error", "unknown-conjecture"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_check_leaves_the_collector_as_it_found_it(tmp_path, name, text, code, enabled):
    p = tmp_path / name
    p.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["check", str(p)]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_check_runs_no_collection(tmp_path):
    """The parse, the statements, the kernel check and the graph of a
    2000-step proof run with the cyclic collector paused."""
    p = tmp_path / "chain.proof"
    p.write_text(_extend_chain(2000))
    args = cli.build_parser().parse_args(["check", "--strict-degeneracy", str(p)])
    collections = []

    def record(phase, info):  # the first allocation after `_rows` may collect: not counted
        frame = sys._getframe()
        while frame is not None and frame.f_code is not cli._rows.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        _, rows = cli._rows(args, strict=True)
    finally:
        gc.callbacks.remove(record)
    assert [(row.name, row.status) for row in rows] == [("chain", "ok")]
    assert collections == []
    assert gc.isenabled()


@pytest.mark.parametrize("command", [["check", "--json"], ["deps"]], ids=["check-json", "deps"])
def test_check_and_deps_print_without_a_collection(tmp_path, monkeypatch, command):
    """From the start of `_rows` to the end of the output for a 2000-step
    proof, the cyclic collector does not run."""
    p = tmp_path / "chain.proof"
    p.write_text(_extend_chain(2000))
    out = io.StringIO()
    started = []
    written = []  # the output written when each collection after the start began
    rows = cli._rows

    def starting(*args, **kwargs):
        started.append(True)
        return rows(*args, **kwargs)

    def record(phase, info):  # a collection after the output is not counted
        if phase == "start" and started:
            written.append(out.tell())

    monkeypatch.setattr(cli, "_rows", starting)
    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        with contextlib.redirect_stdout(out):
            assert main([*command, str(p)]) == 0
    finally:
        gc.callbacks.remove(record)
    assert gc.isenabled()
    assert started and out.tell() > 0
    assert [n for n in written if n < out.tell()] == []


def test_check_syntax_error_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.proof"
    p.write_text(BAD_SYNTAX)
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "syntax error" in err
    assert "broken.proof:6" in err


SPLIT_ON_H1 = """\
theorem t
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  show seg A B == seg A C
  proof
    c1: cases seg A B vs seg A C
    case lt
      close goal from h1, c1.lt
    case eq
      close goal from h1
    case gt
      close goal from c1.gt, h1
  qed from c1
"""


@pytest.mark.parametrize(
    "text, row",
    [
        (GOOD.replace("from h1, h1, refl", "from h1, sym h1, refl"), 8),
        (SPLIT_ON_H1.replace("qed from c1", "qed from sym h1"), 14),
        (SPLIT_ON_H1.replace("from h1, c1.lt", "from sym c1.lt, h1"), 9),
    ],
    ids=["rule-step", "qed", "close"],
)
def test_a_sym_citation_is_one_message_at_the_sym(tmp_path, capsys, text, row):
    """`sym` no longer cites anything: equalities are canonical, so the
    label itself matches either way.  The error points at the `sym`."""
    ok = tmp_path / "ok.proof"
    ok.write_text(text.replace("sym ", ""))
    assert main(["check", str(ok)]) == 0  # the script without its `sym` checks
    capsys.readouterr()
    p = tmp_path / "sym.proof"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    col = text.splitlines()[row - 1].index("sym") + 1
    assert captured.out == ""
    assert captured.err == (
        f"ponscheck: {p}:{row}:{col}: syntax error: `sym` is gone: cite the label itself\n"
    )


def test_missing_file_exits_two(capsys):
    assert main(["check", "no_such_file.proof"]) == 2
    assert "no_such_file.proof" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "deps", "model", "parse"])
def test_undecodable_file_exits_two(tmp_path, capsys, command):
    p = tmp_path / "binary.proof"
    p.write_bytes(GOOD.encode() + b"# \xff\n")
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"ponscheck: cannot read {p}: ")
    assert captured.out == ""


def test_no_input_exits_two(capsys):
    assert main(["check"]) == 2
    assert "no input" in capsys.readouterr().err


def test_check_json_is_byte_stable(capsys):
    assert main(["check", "--corpus", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--corpus", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["version"] == "0.1.0"
    rows = {row["name"]: row for row in doc["theorems"]}
    assert rows["euclid_i5"]["status"] == "ok"
    assert rows["euclid_i5"]["classification"] == "NEUTRAL"
    assert rows["pons_via_area"]["classification"] == "EUCLIDEAN_ONLY"
    assert rows["bisector_pons"]["classification"] == "CYCLIC"
    assert rows["angle_sum_pi"]["status"] == "conjecture"


def test_deps_corpus_reports_cycles_and_exits_one(capsys):
    assert main(["deps", "--corpus"]) == 1
    out = capsys.readouterr().out
    assert "euclid_i5: NEUTRAL" in out
    assert "pons_via_area: EUCLIDEAN_ONLY" in out
    assert "cycles:" in out
    assert "bisector_foot bisector_pons euclid_i7 euclid_i8 euclid_i9" in out
    assert "inscribed_angle_theorem pons_via_inscribed" in out


def test_deps_acyclic_input_exits_zero(good_file, capsys):
    assert main(["deps", good_file]) == 0
    out = capsys.readouterr().out
    assert "mirror_pons: NEUTRAL" in out
    assert "cycles" not in out


def test_deps_dot_is_byte_stable(tmp_path):
    d1 = tmp_path / "one.dot"
    d2 = tmp_path / "two.dot"
    assert main(["deps", "--corpus", "--dot", str(d1)]) == 1
    assert main(["deps", "--corpus", "--dot", str(d2)]) == 1
    text = d1.read_text()
    assert text == d2.read_text()
    assert text.startswith("digraph deps {")
    assert "SAS_ORD [shape=box];" in text


def test_parse_dump_ast_is_a_fixed_point(good_file, tmp_path, capsys):
    assert main(["parse", "--dump-ast", good_file]) == 0
    once = capsys.readouterr().out
    again = tmp_path / "again.proof"
    again.write_text(once)
    assert main(["parse", "--dump-ast", str(again)]) == 0
    assert capsys.readouterr().out == once


def test_parse_reports_block_count(good_file, capsys):
    assert main(["parse", good_file]) == 0
    assert "(1 blocks)" in capsys.readouterr().out


def test_parse_names_a_conjecture(capsys):
    assert main(["parse", ANGLESUM]) == 0
    assert capsys.readouterr().out == f"{ANGLESUM}: ok (conjecture angle_sum_pi)\n"


def test_deps_dot_to_an_unwritable_path_is_one_message(tmp_path, capsys):
    dot = tmp_path / "no_such_dir" / "deps.dot"
    assert main(["deps", "--corpus", "--dot", str(dot)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ponscheck: cannot write {dot}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_model_zero_trials_exits_two(capsys):
    # a model check with no evaluated trial is not a pass
    assert main(["model", "--corpus", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert "--trials must not be negative or zero, got 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "--tol must be finite and positive"),
        ("--tol", "inf", "--tol must be finite and positive"),
        ("--tol", "0", "--tol must be finite and positive"),
        ("--tol", "-0.5", "--tol must be finite and positive"),
        ("--trials", "-5", "--trials must not be negative"),
    ],
)
def test_model_rejects_bad_numbers_with_exit_two(good_file, capsys, flag, value, message):
    assert main(["model", good_file, flag, value]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "step, error",
    [
        pytest.param(step, error, id=step)
        for step, error in [
            ("s1: seg A B == seg A B by SEG_REFL[A,B,C] from refl", "ArityMismatch"),
            ("s1: seg A B == seg A B by SEG_TRANS[A,B,A,A,A,B] from h1, h1", "DegenerateInstantiation"),
        ]
    ],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_model_uninstantiable_step_is_a_diagnostic(tmp_path, capsys, step, error, json_flag):
    p = tmp_path / "bad_inst.proof"
    p.write_text(
        GOOD.replace(
            "s1: ang A B C == ang A C B by SAS_ORD[(A,B,C),(A,C,B)] from h1, h1, refl",
            step,
        ).replace("show ang A B C == ang A C B", "show seg A B == seg A B")
    )
    assert main(["check", str(p)]) == 1
    assert f"): {error}: " in capsys.readouterr().out
    assert main(["model", str(p), "--trials", "5"] + json_flag) == 1
    _assert_proof_failed(capsys.readouterr(), "mirror_pons", json_flag)


def _assert_proof_failed(captured, name, json_flag):
    """`model` reports the block as proof-failed in every model: the step
    `check` rejected is never replayed, so there is no diagnostic from the
    replay and no traceback."""
    assert captured.err == ""
    if json_flag:
        rows = [r for r in json.loads(captured.out)["theorems"] if r["name"] == name]
        assert [(r["status"], r["models"]) for r in rows] == [("failed", {})]
    else:
        assert [line for line in captured.out.splitlines() if line.startswith(name + " ")] == [
            f"{name} [{m}] proof-failed" for m in ("euclidean", "poincare", "sphere")
        ]


FOOT_USER = """\
theorem foot
  tags: neutral
  points A B C
  introduces H
  assume h1: noncollinear A B C
  show between B H C
  show ang B A H == ang C A H

theorem uses_foot
  tags: neutral
  points A B C
  assume h1: noncollinear A B C
  show noncollinear A B C
  proof
    l1: LEMMA_STEP
  qed from h1
"""


@pytest.mark.parametrize(
    "step",
    [
        "lemma foot(A,B) as H",  # one point short
        "lemma foot(A,B,C) as H, K",  # one fresh name too many
    ],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_model_lemma_arity_mismatch_is_a_diagnostic(tmp_path, capsys, step, json_flag):
    p = tmp_path / "bad_lemma.proof"
    p.write_text(FOOT_USER.replace("LEMMA_STEP", step))
    assert main(["check", str(p)]) == 1
    assert "): ArityMismatch: lemma foot " in capsys.readouterr().out
    assert main(["model", str(p), "--trials", "20"] + json_flag) == 1
    _assert_proof_failed(capsys.readouterr(), "uses_foot", json_flag)


# One-step scripts and the exact diagnostic each gets from `check` and from
# `model --trials 5`: (name, script, check line, model exit code, model
# stderr).  Only the step differs between the scripts of one template.  The
# `check` lines were recorded before the kernel and the replay shared
# kernel.step_facts.  `model` reports a proof that `check` rejected as
# proof-failed, on stdout, and never replays it.
ONE_STEP = """\
theorem t
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  assume h2: noncollinear A B C
  assume h3: seg A B < seg B C
  show seg A B == seg A B
  proof
    STEP
  qed from s1
"""

ONE_LEMMA_STEP = """\
theorem foot
  tags: neutral
  points A B C
  introduces H
  assume h1: noncollinear A B C
  show between B H C
  show ang B A H == ang C A H

theorem shorter
  tags: neutral
  points A B C
  assume h1: seg A C < seg A B
  show seg A C < seg A B

theorem u
  tags: neutral
  points A B C
  assume h1: noncollinear A B C
  show noncollinear A B C
  proof
    STEP
  qed from h1
"""


def _one_step(step, template=ONE_STEP):
    return template.replace("STEP", step)


def _at(line, detail):
    return f"  step s1 (line {line}): {detail}"


STEP_DIAGNOSTICS = [
    (
        "rule_ok",
        _one_step("s1: seg A B == seg A B by SEG_REFL[A,B] from refl"),
        None,
        0,
        "",
    ),
    (
        "rule_arity",
        _one_step("s1: seg A B == seg A B by SEG_REFL[A,B,C] from refl"),
        _at(9, "ArityMismatch: SEG_REFL expects 2 points, got 3"),
        1,
        "",
    ),
    (
        "rule_degenerate",
        _one_step("s1: seg A B == seg A B by SEG_TRANS[A,B,A,A,A,B] from h1, h1"),
        _at(9, "DegenerateInstantiation: segment endpoints coincide: A"),
        1,
        "",
    ),
    (
        "rule_premise_count",
        _one_step("s1: seg A B == seg A B by SEG_REFL[A,B] from h1"),
        _at(9, "PremiseMismatch: SEG_REFL takes 0 premise(s), 1 cited"),
        1,
        "",
    ),
    (
        "rule_premise_mismatch",
        _one_step("s1: seg A C == seg A B by SEG_TRANS[A,B,A,C,A,C] from h2, refl"),
        _at(
            9,
            "PremiseMismatch: premise seg(A,B) == seg(A,C) expected; "
            "h2 provides: noncollinear(A,B,C)",
        ),
        1,
        "",
    ),
    (
        "rule_conclusion",
        _one_step("s1: seg A C == seg A C by SEG_REFL[A,B] from refl"),
        _at(
            9,
            "ConclusionMismatch: seg(A,C) == seg(A,C) is not a conclusion of SEG_REFL "
            "at this instantiation (it yields: seg(A,B) == seg(A,B))",
        ),
        1,
        "",
    ),
    (
        "absurd_outside_case",
        _one_step("s1: absurd by ABSURD_LT_EQ_SEG[A,B,A,C] from h3, h1").replace(
            "h3: seg A B < seg B C", "h3: seg A B < seg A C"
        ),
        _at(9, "AbsurdOutsideCase: absurdity derived outside any case assumption"),
        1,  # the hypotheses contradict each other, so no trial is evaluated
        "",
    ),
    (
        "unknown_point_rule",
        _one_step("s1: seg A X == seg A X by SEG_REFL[A,X] from refl"),
        _at(9, "KernelError: point X is not in scope"),
        1,
        "",
    ),
    (
        "unknown_point_in_fact",
        _one_step("s1: seg A X == seg A X by SEG_REFL[A,B] from refl"),
        _at(9, "KernelError: point X is not in scope"),
        1,
        "",
    ),
    (
        "degenerate_fact",
        _one_step("s1: seg A A == seg A B by SEG_TRANS[A,B,A,C,A,C] from h1, refl"),
        _at(9, "DegenerateInstantiation: segment endpoints coincide: A"),
        1,
        "",
    ),
    (
        "unknown_rule",
        _one_step("s1: seg A B == seg A B by NO_SUCH_RULE[A,B] from refl"),
        _at(9, "KernelError: unknown rule NO_SUCH_RULE"),
        1,
        "",
    ),
    (
        "removed_rule",  # a symmetry rule: equalities are canonical, so it is gone
        _one_step("s1: seg A C == seg A B by SEG_SYM[A,B,A,C] from h1"),
        _at(9, "KernelError: unknown rule SEG_SYM"),
        1,
        "",
    ),
    (
        "unknown_label",
        _one_step("s1: seg A C == seg A B by SEG_TRANS[A,B,A,C,A,C] from h9, refl"),
        _at(9, "UnknownPremise: no step or hypothesis labeled h9"),
        1,
        "",
    ),
    (
        "unknown_point_extend",
        _one_step("s1: extend A X by seg A B as D"),
        _at(9, "KernelError: point X is not in scope"),
        1,
        "",
    ),
    (
        "extend_same_points",
        _one_step("s1: extend A A by seg A B as D"),
        _at(9, "DegenerateInstantiation: extend needs two distinct points"),
        1,
        "",
    ),
    (
        "extend_degenerate_seg",
        _one_step("s1: extend A A by seg B B as D"),
        _at(9, "DegenerateInstantiation: segment endpoints coincide: B"),
        1,
        "",
    ),
    (
        "extend_fresh_is_a",
        _one_step("s1: extend A B by seg A B as A"),
        _at(9, "KernelError: point name A already in scope"),
        1,
        "",
    ),
    (
        "extend_fresh_is_b",
        _one_step("s1: extend A B by seg A B as B"),
        _at(9, "KernelError: point name B already in scope"),
        1,
        "",
    ),
    (
        "extend_fresh_exists",
        _one_step("s1: extend A B by seg A B as C"),
        _at(9, "KernelError: point name C already in scope"),
        1,
        "",
    ),
    (
        "layoff_toward_start",
        _one_step("s1: layoff A toward A by seg A B as D from h3"),
        _at(9, "DegenerateInstantiation: segment endpoints coincide: A"),
        1,
        "",
    ),
    (
        "layoff_no_bound",
        _one_step("s1: layoff B toward C by seg A B as D from h1"),
        _at(9, "LayoffWithoutBound: layoff needs seg(A,B) < seg(B,C) among its citations"),
        1,
        "",
    ),
    (
        "layoff_fresh_exists",
        _one_step("s1: layoff B toward C by seg A B as C from h3"),
        _at(9, "KernelError: point name C already in scope"),
        1,
        "",
    ),
    (
        "lemma_repeats_point",
        _one_step("s1: lemma foot(A,A,C) as H", ONE_LEMMA_STEP),
        _at(
            21,
            "HypothesisNotSatisfied: lemma foot: hypothesis noncollinear(A,B,C) "
            "degenerates under this map",
        ),
        1,
        "",
    ),
    (
        "lemma_fresh_exists",
        _one_step("s1: lemma foot(A,B,C) as A", ONE_LEMMA_STEP),
        _at(21, "KernelError: point name A already in scope"),
        1,
        "",
    ),
    (
        "lemma_too_many_fresh",
        _one_step("s1: lemma foot(A,B,C) as H, K", ONE_LEMMA_STEP),
        _at(21, "ArityMismatch: lemma foot introduces 1 point(s), 2 name(s) given"),
        1,
        "",
    ),
    (
        "lemma_no_fresh",
        _one_step("s1: lemma foot(A,B,C)", ONE_LEMMA_STEP),
        _at(21, "ArityMismatch: lemma foot introduces 1 point(s), 0 name(s) given"),
        1,
        "",
    ),
    (
        "lemma_one_point_short",
        _one_step("s1: lemma foot(A,B) as H", ONE_LEMMA_STEP),
        _at(21, "ArityMismatch: lemma foot takes 3 point(s), got 2"),
        1,
        "",
    ),
    (
        "lemma_hypothesis",
        _one_step("s1: lemma shorter(A,B,C)", ONE_LEMMA_STEP),
        _at(21, "HypothesisNotSatisfied: lemma shorter needs seg(A,C) < seg(A,B)"),
        1,
        "",
    ),
    (
        "lemma_unknown",
        _one_step("s1: lemma nosuch(A,B,C) as H", ONE_LEMMA_STEP),
        _at(21, "KernelError: unknown lemma nosuch"),
        1,
        "",
    ),
]


@pytest.mark.parametrize(
    "script, check_line, model_code, model_err",
    [case[1:] for case in STEP_DIAGNOSTICS],
    ids=[case[0] for case in STEP_DIAGNOSTICS],
)
def test_step_diagnostics_are_pinned(tmp_path, capsys, script, check_line, model_code, model_err):
    p = tmp_path / "one_step.proof"
    p.write_text(script)
    assert main(["check", str(p)]) == (0 if check_line is None else 1)
    captured = capsys.readouterr()
    diagnostics = [
        line
        for line in (captured.out + captured.err).splitlines()
        if line.startswith(("  ", "ponscheck:"))
    ]
    assert diagnostics == ([] if check_line is None else [check_line])
    assert main(["model", str(p), "--trials", "5"]) == model_code
    captured = capsys.readouterr()
    assert captured.err.strip() == model_err
    if check_line is not None and check_line.startswith("  step"):
        assert captured.out.count("] proof-failed\n") == 3


def test_a_value_error_while_a_step_runs_fails_that_step(monkeypatch, capsys):
    """A ValueError raised anywhere while a step runs, not only where its
    terms are built, fails that step as DegenerateInstantiation and ends
    the proof: no later step runs and no traceback escapes."""
    add_label = kernel.ProofState.add_label

    def add_label_failing_at_s3(state, label, facts):
        if label == "s3":
            raise ValueError("boom")
        add_label(state, label, facts)

    monkeypatch.setattr(kernel.ProofState, "add_label", add_label_failing_at_s3)
    with open(EUCLID_I5, encoding="utf-8") as f:
        blocks = elaborate_script(parse(f.read()))
    (block,) = blocks
    report = check_proof(block.statement, block.proof, collect_statements(blocks))
    assert report.status == "failed"
    assert [r.label for r in report.steps] == ["e1", "e2", "s1", "s2", "a1", "a2", "a3", "s3"]
    assert [r for r in report.steps if not r.ok] == [
        StepResult("s3", False, "DegenerateInstantiation: boom", 19)
    ]
    assert main(["check", EUCLID_I5]) == 1
    captured = capsys.readouterr()
    steps = [line for line in captured.out.splitlines() if line.startswith("  step")]
    assert steps == ["  step s3 (line 19): DegenerateInstantiation: boom"]
    assert captured.err == ""


# A stated lemma point with no betweenness carrier cannot be solved for, so
# every trial of both blocks is skipped.
NOFOOT = """\
theorem nofoot
  tags: neutral
  points A B C
  introduces H
  assume h1: noncollinear A B C
  show seg A H == seg A B

theorem uses_nofoot
  tags: neutral
  points A B C
  assume h1: noncollinear A B C
  show noncollinear A B C
  proof
    l1: lemma nofoot(A,B,C) as H
  qed from h1
"""


def test_model_with_no_evaluated_trial_fails(tmp_path, capsys):
    p = tmp_path / "nofoot.proof"
    p.write_text(NOFOOT)
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    assert main(["model", str(p), "--trials", "20"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{name} [{model}] trials=0 failures=0 skipped=20  FAILED: no trial evaluated"
        for name in ("nofoot", "uses_nofoot")
        for model in ("euclidean", "poincare", "sphere")
    ]
    assert main(["model", str(p), "--trials", "20", "--json"]) == 1


def test_model_does_not_pass_a_proof_that_check_rejected(tmp_path, capsys, monkeypatch):
    """A block whose proof fails `check` is `proof-failed` in every model:
    it is not replayed, and it fails `model`.  Other blocks are checked."""
    p = tmp_path / "fresh_exists.proof"
    p.write_text(_one_step("s1: extend A B by seg A B as C") + "\n" + GOOD)
    assert main(["check", str(p)]) == 1
    assert "KernelError: point name C already in scope" in capsys.readouterr().out
    replayed = []

    def spy(model, **kw):
        replayed.append(kw["statement"].name)
        return model_check(model, **kw)

    monkeypatch.setattr(cli, "model_check", spy)
    assert main(["model", str(p), "--trials", "5"]) == 1
    captured = capsys.readouterr()
    models = ("euclidean", "poincare", "sphere")
    assert captured.out.splitlines() == [f"t [{m}] proof-failed" for m in models] + [
        f"mirror_pons [{m}] trials=5 failures=0 skipped=0" for m in models
    ]
    assert captured.err == ""
    assert replayed == ["mirror_pons"] * 3
    assert main(["model", str(p), "--trials", "5", "--json"]) == 1
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["theorems"]}
    assert (rows["t"]["status"], rows["t"]["models"]) == ("failed", {})
    assert sorted(rows["mirror_pons"]["models"]) == list(models)


def test_model_runs_statements_in_all_models(good_file, capsys):
    assert main(["model", good_file, "--trials", "40", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("euclidean", "poincare", "sphere"):
        assert name in out
    assert "FAILED" not in out


SUPP_CONG_INSTANCE = """\
theorem supp_cong_instance
  tags: neutral
  points A B C D P Q R S
  assume h1: between A B D
  assume h2: between P Q S
  assume h3: ang D B C == ang S Q R
  assume h4: noncollinear A B C
  assume h5: noncollinear P Q R
  show ang A B C == ang P Q R
  proof
    s1: ang A B C == ang P Q R by SUPP_CONG[A,B,C,D,P,Q,R,S] from h1, h2, h3
  qed from s1
"""


# SAS with the arms of the angle equality in the other name order: the arm
# the angle equality turns must keep the length h1 or h2 gave it.
SAS_RELABELLED = """\
theorem sas_relabelled
  tags: neutral
  points A B C D E F
  assume h1: seg A B == seg D F
  assume h2: seg A C == seg D E
  assume h3: ang B A C == ang F D E
  assume h4: noncollinear A B C
  assume h5: noncollinear D F E
  show seg B C == seg F E
  proof
    s1: seg B C == seg F E by SAS_ORD[A,B,C,D,F,E] from h1, h2, h3
  qed from s1
"""

# SAS after a betweenness through the vertex D, or through the arm point
# F: a segment or angle equality that moved D or F would take it off the
# segment G H.
SAS_AFTER_BETWEEN = """\
theorem sas_after_between
  tags: neutral
  points A B C D E F G H
  assume h0: between G {} H
  assume h1: seg A B == seg D E
  assume h2: seg A C == seg D F
  assume h3: ang B A C == ang E D F
  assume h4: noncollinear A B C
  assume h5: noncollinear D E F
  show seg B C == seg E F
  proof
    s1: seg B C == seg E F by SAS_ORD[A,B,C,D,E,F] from h1, h2, h3
  qed from s1
"""


@pytest.mark.parametrize(
    "text",
    [SUPP_CONG_INSTANCE, SAS_RELABELLED, SAS_AFTER_BETWEEN.format("D"),
     SAS_AFTER_BETWEEN.format("F")],
    ids=["supp_cong", "sas_relabelled", "sas_vertex_between", "sas_arm_between"],
)
def test_model_samples_hypotheses_that_share_points(text, tmp_path, capsys):
    """Each later hypothesis names points an earlier one placed: the
    sampler must place it without undoing the earlier ones (in SUPP_CONG,
    move R instead of S), or every trial breaks one hypothesis and is
    skipped or reports a false counterexample."""
    p = tmp_path / "shared.proof"
    p.write_text(text)
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    assert main(["model", str(p), "--trials", "20", "--seed", "0", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["theorems"][0]
    for name in ("euclidean", "poincare", "sphere"):
        rep = row["models"][name]
        assert (rep["trials_run"], rep["failures"], rep["skipped"]) == (20, 0, 0), name


# Two angles of one triangle equal to two of another, and the side between
# them: ASA proves the other sides equal.  Without the side, nothing does.
ASA_INSTANCE = """\
theorem asa_instance
  tags: neutral
  points A B C D E F
  assume h1: ang A B C == ang D E F
  assume h2: ang A C B == ang D F E
  assume h3: seg B C == seg E F
  assume h4: noncollinear A B C
  assume h5: noncollinear D E F
  show seg A B == seg D E
  proof
    s1: seg A B == seg D E by ASA_ORD[A,B,C,D,E,F] from h1, h2, h3
  qed from s1
"""
TWO_ANGLES_ONE_SIDE = """\
theorem two_angles_one_side
  tags: neutral
  points A B C D E F
  assume h1: ang A B C == ang D E F
  assume h2: ang A C B == ang D F E
  assume h3: noncollinear A B C
  assume h4: noncollinear D E F
  show seg B C == seg E F
"""


def test_model_passes_an_asa_proof(tmp_path, capsys):
    p = tmp_path / "asa.proof"
    p.write_text(ASA_INSTANCE)
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    assert main(["model", str(p), "--trials", "50", "--seed", "0", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["theorems"][0]
    for name in ("euclidean", "poincare", "sphere"):
        rep = row["models"][name]
        assert (rep["trials_run"], rep["failures"]) == (50, 0), name


def test_model_refutes_two_angles_without_the_side_between(tmp_path, capsys):
    """The sampler must not build the two triangles congruent: a claim that
    two angles make the triangles' sides equal fails in every model."""
    p = tmp_path / "two_angles.proof"
    p.write_text(TWO_ANGLES_ONE_SIDE)
    assert main(["model", str(p), "--trials", "50", "--seed", "0", "--json"]) == 1
    row = json.loads(capsys.readouterr().out)["theorems"][0]
    for name in ("euclidean", "poincare", "sphere"):
        rep = row["models"][name]
        assert rep["trials_run"] == rep["failures"] == 50, name
    assert main(["model", str(p), "--trials", "50", "--seed", "0"]) == 1
    assert capsys.readouterr().out.count("FAILED") == 3


def test_model_conjecture_divergence_is_expected(capsys):
    code = main(
        ["model", "--corpus", "--trials", "30", "--seed", "2", "--model", "all"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "expected-divergence" in out
    assert "FAILED" not in out


def test_model_unknown_conjecture_exits_two(tmp_path, capsys):
    p = tmp_path / "mystery.conj"
    p.write_text("conjecture no_such_claim\n  points A B C\n")
    assert main(["model", str(p), "--trials", "5"]) == 2
    assert "unknown conjecture no_such_claim" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "deps"])
def test_check_and_deps_reject_an_unknown_conjecture(tmp_path, capsys, command):
    p = tmp_path / "mystery.conj"
    for text, message in (
        ("conjecture no_such_claim\n  points A B C\n", "unknown conjecture no_such_claim"),
        ("conjecture angle_sum_pi\n  points A B\n",
         "unknown conjecture angle_sum_pi expects 3 points, got 2"),
    ):
        p.write_text(text)
        assert main([command, "--corpus", str(p)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"ponscheck: {message}\n")


@pytest.mark.parametrize(
    "name, points, message",
    [
        ("no_such_claim", "A B C", "unknown conjecture no_such_claim"),
        ("angle_sum_pi", "A B", "unknown conjecture angle_sum_pi expects 3 points, got 2"),
    ],
)
def test_model_unknown_conjecture_is_rejected_before_any_check(
    tmp_path, capsys, monkeypatch, name, points, message
):
    calls = []
    model_check = cli.model_check

    def counting(*args, **kwargs):
        calls.append(args)
        return model_check(*args, **kwargs)

    monkeypatch.setattr(cli, "model_check", counting)
    p = tmp_path / "mystery.conj"
    p.write_text(f"conjecture {name}\n  points {points}\n")
    assert main(["model", "--corpus", str(p), "--trials", "200"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert calls == []


def test_model_conjecture_failure_in_flat_model_fails(capsys):
    conj = os.path.join(os.path.dirname(ponscheck.__file__), "corpus", "anglesum.conj")
    code = main(
        ["model", conj, "--model", "euclidean", "--tol", "1e-300", "--trials", "20"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "angle_sum_pi [euclidean] trials=20 failures=" in out
    assert "FAILED" in out
    assert "expected-divergence" not in out


# sha256 of stdout (CPython 3.11, x86-64 Linux, glibc libm), recorded again
# when each statement group came to draw its trials from one seeded stream:
# the counterexamples' coordinates and the counts moved, no verdict did.  At
# seed 3 the disk's working domain skips two euclid_i5 trials, each a
# GeodesicOutOfDomain at step e2.  A change that alters any number `model`
# prints must say why; see ROADMAP aim 1.
MODEL_DIGESTS = [
    (
        ["--json", "--model", "all", "--trials", "40", "--seed", "0"],
        "a451bbe7d961f905e8ba6ee9237962f0009ecb73d3441f189209e71432b744f6",
    ),
    (
        ["--trials", "40", "--seed", "3"],
        "d21b5e9a789e9d10b232dafa63be95d363289e9e69d2a69383ff50d8cca542f2",
    ),
    (
        ["--json", "--model", "all", "--trials", "40", "--seed", "5", "--tol", "1e-6"],
        "6643d8c46cb7cb4349ef3efa42fbe54951a23efa9a50e4ad976356b73701f6c9",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", MODEL_DIGESTS, ids=["json-all-seed0", "text-seed3", "json-all-seed5-tol"]
)
def test_model_corpus_output_is_byte_identical(capsys, argv, digest):
    assert main(["model", "--corpus"] + argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of stdout of the symbolic commands on the corpus, with their exit
# codes (`deps` exits 1 on the corpus's deliberate cycle).  A change to the
# kernel, the terms or the graph must keep these bytes; see ROADMAP aim 1.
# The check, dump-ast and dot digests were recorded again when the identity
# rule ANG_SYM and the step t1 citing it left euclid_i5_converse.
SYMBOLIC_DIGESTS = [
    (
        ["check", "--json"],
        0,
        "2f8f343c6a93f5535dddee89aba9e4cb106d10a6bd3e12c5929555d1c7213878",
    ),
    (
        ["check", "--json", "--strict-degeneracy"],
        0,
        "2f8f343c6a93f5535dddee89aba9e4cb106d10a6bd3e12c5929555d1c7213878",
    ),
    (
        ["deps"],
        1,
        "4ea4628644241a17e5d3bb30a7ca4621088d36a363def08432c99c12377f0691",
    ),
    (
        ["parse", "--dump-ast"],
        0,
        "de4d8ca31e5ca5eccb7e6b2e35d217284b9b9c29c32e714546c82e96d78294b5",
    ),
]
DOT_DIGEST = "ae7b0f0e5e3624bc80df2235d1463cc27f50d1490a59aeaedb4d674afa48b6b7"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, code, digest",
    SYMBOLIC_DIGESTS,
    ids=["check-json", "check-json-strict", "deps", "parse-dump-ast"],
)
def test_symbolic_corpus_output_is_byte_identical(capsys, argv, code, digest):
    assert main(argv[:1] + ["--corpus"] + argv[1:]) == code
    assert _sha(capsys.readouterr().out) == digest


def test_deps_dot_file_is_byte_identical(capsys, tmp_path):
    dot = tmp_path / "corpus.dot"
    assert main(["deps", "--corpus", "--dot", str(dot)]) == 1
    assert _sha(capsys.readouterr().out) == SYMBOLIC_DIGESTS[2][2]
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == DOT_DIGEST


MIXED = (
    GOOD.replace("mirror_pons", "mix_ok")
    + BAD_CITATION.replace("mirror_pons", "mix_failed")
    + """\
theorem mix_stated
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  show seg A B == seg A C
  uses mix_declared

declare mix_declared
  tags: euclidean
"""
)


def test_every_command_renders_the_same_rows(tmp_path, capsys):
    """`check` text and `--json`, `deps` and `model --json` agree row by row
    on the corpus plus a script with every status and a second conjecture."""
    script = tmp_path / "mixed.proof"
    script.write_text(MIXED)
    conj = tmp_path / "mixed.conj"
    conj.write_text("conjecture angle_sum_pi\n  points P Q R\n")

    def out(*argv):
        assert main([*argv, "--corpus", str(script), str(conj)]) == 1
        return capsys.readouterr().out

    rows = json.loads(out("check", "--json"))["theorems"]
    statuses = [(row["name"], row["status"]) for row in rows]
    assert {"ok", "failed", "stated", "conjecture"} <= {status for _, status in statuses}
    assert ("mix_declared", "stated") in statuses
    text = [line.split(": ", 1) for line in out("check").splitlines() if line[0] != " "]
    assert [(name, rest.split(" ")[0]) for name, rest in text] == statuses
    deps = [tuple(line.split(": ")) for line in out("deps").splitlines() if ": " in line]
    assert deps == [
        (row["name"], row["classification"]) for row in rows if row["status"] != "conjecture"
    ]
    model_rows = json.loads(out("model", "--trials", "3", "--json"))["theorems"]
    assert [{k: v for k, v in row.items() if k != "models"} for row in model_rows] == [
        {k: v for k, v in row.items() if k != "models"} for row in rows
    ]
    lines = out("model", "--trials", "3").splitlines()
    for model in ("euclidean", "poincare", "sphere"):
        assert f"mix_failed [{model}] proof-failed" in lines


def test_model_json_shape(good_file, capsys):
    assert main(["model", good_file, "--trials", "10", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["theorems"][0]
    assert row["name"] == "mirror_pons"
    for name in ("euclidean", "poincare", "sphere"):
        assert row["models"][name]["failures"] == 0
        assert row["models"][name]["trials_run"] == 10


def test_unknown_model_name_rejected(good_file, capsys):
    with pytest.raises(SystemExit):
        main(["model", good_file, "--model", "taxicab"])


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point_runs():
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(ponscheck.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ponscheck", "check", "--corpus"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "pappus_pons: ok" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["parse", "--dump-ast", "--corpus"],
    ["check", "--corpus"],
    ["deps", "--corpus"],
    ["model", "--corpus", "--trials", "5"],
], ids=lambda argv: argv[0])
def test_a_reader_that_closes_stdout_ends_the_command_quietly(argv):
    """As `ponscheck ... | head` does once it has its lines; here stdout is
    a pipe whose reading end is closed before the command starts."""
    src = os.path.dirname(os.path.dirname(ponscheck.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ponscheck", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 141


FRESH_INTERPRETER = """\
import sys

before = set(sys.modules)
import ponscheck
from ponscheck import cli

for argv in (["check", "--corpus"], ["deps", "--corpus"]):
    cli.main(argv)
loaded = [m for m in ("ponscheck.models", "ponscheck.geometry") if m in sys.modules]
loaded += [m for m in ("dataclasses",) if m in sys.modules and m not in before]
assert not loaded, loaded

assert cli.main(["model", "--corpus", "--trials", "2", "--model", "euclidean"]) == 0
from ponscheck import EUCLIDEAN, model_check

assert model_check is ponscheck.models.model_check and EUCLIDEAN.name == "euclidean"
try:
    ponscheck.no_such_name
except AttributeError as exc:
    print("no attribute:", exc)
"""


def test_check_and_deps_never_load_the_numeric_layer():
    """A fresh `check` and `deps` import neither `models`, `geometry` nor
    `dataclasses`; `model` and the package's numeric names still load them."""
    src = os.path.dirname(os.path.dirname(ponscheck.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "[euclidean] trials=2 failures=0" in proc.stdout
    missing = "module 'ponscheck' has no attribute 'no_such_name'"
    assert proc.stdout.endswith(f"no attribute: {missing}\n")


def test_the_package_loads_its_numeric_names_on_first_use():
    """`ponscheck.__getattr__` resolves the numeric layer's names (PEP 562);
    a fresh `import ponscheck` loads neither `models` nor `geometry`."""
    from ponscheck import geometry, models

    assert ponscheck.model_check is models.model_check
    assert ponscheck.EUCLIDEAN is geometry.EUCLIDEAN
    assert ponscheck.__getattr__("geometry") is geometry
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ponscheck.no_such_name
    src = os.path.dirname(os.path.dirname(ponscheck.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    fresh = (
        "import sys, ponscheck; "
        "print(sorted({'ponscheck.models', 'ponscheck.geometry'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", fresh],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_model_choices_are_the_geometry_models(capsys):
    from ponscheck import MODEL_NAMES, geometry

    assert MODEL_NAMES == tuple(geometry.MODELS)
    with pytest.raises(SystemExit):
        main(["model", "--corpus", "--model", "nope"])
    choices = ", ".join(repr(m) for m in (*geometry.MODELS, "all"))
    assert f"(choose from {choices})" in capsys.readouterr().err
