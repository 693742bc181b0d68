"""Proof-script parser: grammar coverage, errors, round-trip stability."""

import pytest
from hypothesis import given, settings, strategies as st

from ponscheck.corpus import PROOF_FILENAMES, load_text
from ponscheck.elaborate import elaborate_script
from ponscheck.script import (
    AssumeAst,
    DeclareAst,
    FactAst,
    InstAst,
    ParseError,
    RuleStepAst,
    ScriptAst,
    TheoremAst,
    format_script,
    parse,
    parse_conjecture,
)
from ponscheck.kernel import CaseBranch, CasesStep, ExtendStep, LayoffStep, LemmaStep, Ref

BASIC = """\
# base angles of an isosceles triangle
theorem demo
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  assume h2: noncollinear A B C
  show ang A B C == ang A C B
  proof
    s1: ang A B C == ang A C B by SAS_ORD[(A,B,C),(A,C,B)] from h1, h1, refl
  qed from s1
"""


def test_basic_theorem_parses():
    ast = parse(BASIC)
    assert len(ast.items) == 1
    thm = ast.items[0]
    assert isinstance(thm, TheoremAst)
    assert thm.name == "demo"
    assert thm.tags == ("neutral",)
    assert thm.points == ("A", "B", "C")
    assert [a.label for a in thm.assumes] == ["h1", "h2"]
    assert thm.shows[0].kind == "ang_eq"
    assert thm.steps is not None and len(thm.steps) == 1
    step = thm.steps[0]
    assert isinstance(step, RuleStepAst)
    assert step.rule == "SAS_ORD"
    assert step.inst.points == ("A", "B", "C", "A", "C", "B")
    assert step.inst.triples
    assert step.refs == (Ref("label", "h1"), Ref("label", "h1"), Ref("refl"))
    assert thm.qed_refs == (Ref("label", "s1"),)


def test_between_fact_reorders_to_mid_first():
    text = BASIC.replace(
        "assume h2: noncollinear A B C", "assume h2: between A B C"
    )
    thm = parse(text).items[0]
    fact = thm.assumes[1].fact
    # surface order (x, y, z) puts the middle point second
    assert fact.kind == "between"
    assert fact.points == ("A", "B", "C")


def test_empty_input_is_empty_script():
    assert parse("") == ScriptAst(items=())
    assert parse("\n\n# only a comment\n") == ScriptAst(items=())


def test_parse_error_is_syntax_error():
    assert issubclass(ParseError, SyntaxError)
    with pytest.raises(SyntaxError) as exc_info:
        parse("theorem demo\n  points A A\n")
    err = exc_info.value
    assert isinstance(err, ParseError)
    assert err.line == 2
    assert err.lineno == 2


def test_duplicate_labels_rejected():
    bad = BASIC.replace("assume h2", "assume h1")
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("theorem demo\n  tags: neutral\n  points A B A  # again\n", 3, 14),
        ("theorem demo\n  tags: neutral\n  points A\n  introduces B A\n", 4, 16),
        (BASIC.replace("assume h2", "assume h1"), 6, 3),
        (BASIC.replace("s1:", "h2:"), 9, 5),
    ],
)
def test_duplicate_errors_point_at_the_repeat(text, line, col):
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    assert (exc_info.value.line, exc_info.value.col) == (line, col)


def test_names_may_start_with_underscore():
    text = "theorem _t\n  tags: neutral\n  points _a B\n  show seg _a B == seg B _a\n"
    thm = parse(text).items[0]
    assert (thm.name, thm.points) == ("_t", ("_a", "B"))


def test_reserved_word_as_point_rejected():
    bad = BASIC.replace("points A B C", "points A B proof")
    with pytest.raises(ParseError):
        parse(bad)


def test_branch_order_enforced():
    text = """\
theorem tri
  points A B C D
  assume h1: seg A B == seg C D
  show seg A B == seg C D
  proof
    c1: cases seg A B vs seg C D
    case gt
      close goal from c1.eq
    case eq
      close goal from c1.eq
    case lt
      close goal from c1.eq
    end
  qed from c1
"""
    with pytest.raises(ParseError):
        parse(text)


def test_declare_block():
    text = """\
declare playfair
  tags: euclidean
  uses angle_sum
"""
    ast = parse(text)
    assert ast.items == (
        DeclareAst(name="playfair", tags=("euclidean",), uses=("angle_sum",)),
    )


def test_conjecture_form():
    conj = parse_conjecture("conjecture angle_sum_pi\npoints A B C\n")
    assert conj.name == "angle_sum_pi"
    assert conj.points == ("A", "B", "C")
    with pytest.raises(ParseError):
        parse_conjecture("conjecture only_name\n")


@pytest.mark.parametrize("filename", PROOF_FILENAMES)
def test_corpus_round_trip(filename):
    ast = parse(load_text(filename))
    assert parse(format_script(ast)) == ast


# --- generative round trip -------------------------------------------------

_points = ("A", "B", "C", "D", "E")


def _distinct(n):
    # n distinct points drawn directly: a filter on n independent draws
    # rejects too often and trips hypothesis's filter_too_much check
    return st.permutations(_points).map(lambda p: tuple(p[:n]))


_seg_fact = _distinct(4).map(lambda t: FactAst("seg_eq", t))
_slt_fact = _distinct(4).map(lambda t: FactAst("seg_lt", t))
_ang_fact = _distinct(3).map(lambda t: FactAst("ang_eq", t + t[::-1]))
_btw_fact = _distinct(3).map(lambda t: FactAst("between", t))
_nc_fact = _distinct(3).map(lambda t: FactAst("noncollinear", t))
_fact = st.one_of(_seg_fact, _slt_fact, _ang_fact, _btw_fact, _nc_fact)

_refs = st.lists(
    st.one_of(
        st.sampled_from(["h1", "h2", "s0"]).map(lambda l: Ref("label", l)),
        st.just(Ref("refl")),
        st.sampled_from(["h1", "h2"]).map(lambda l: Ref("sym", l)),
    ),
    min_size=1,
    max_size=3,
).map(tuple)


def _draw_steps(draw, labels, depth, min_size):
    """Steps of every kind, labelled uniquely across the whole proof (the
    parser rejects a repeated label, in a branch as anywhere else); a case
    split nests at most two deep."""
    kinds = ("rule", "extend", "layoff", "lemma") + (("cases",) if depth < 2 else ())
    steps = []
    for _ in range(draw(st.integers(min_size, 3 if depth == 0 else 2))):
        label = f"s{len(labels)}"
        labels.append(label)
        kind = draw(st.sampled_from(kinds))
        if kind == "rule":
            # the two-triples surface form always carries six points
            triples = draw(st.booleans())
            inst_pts = draw(_distinct(5)) + ("F",) if triples else draw(_distinct(3))
            steps.append(
                RuleStepAst(
                    label=label,
                    fact=draw(_fact),
                    rule=draw(st.sampled_from(["SAS_ORD", "SEG_TRANS", "ARM_SUBST"])),
                    inst=InstAst(points=inst_pts, triples=triples),
                    refs=draw(_refs),
                )
            )
        elif kind == "extend":
            steps.append(ExtendStep(label, *draw(_distinct(2)), draw(_distinct(2)), "F"))
        elif kind == "layoff":
            start, toward = draw(_distinct(2))
            steps.append(LayoffStep(label, start, toward, draw(_distinct(2)), "F", draw(_refs)))
        elif kind == "lemma":
            args = draw(st.integers(1, 3).flatmap(_distinct))
            fresh = draw(st.sampled_from([(), ("F",), ("F", "G")]))
            steps.append(LemmaStep(label, draw(st.sampled_from(["foot", "mid"])), args, fresh))
        else:
            branches = tuple(
                CaseBranch(
                    case,
                    tuple(_draw_steps(draw, labels, depth + 1, 0)),
                    draw(st.sampled_from(["goal", "absurd"])),
                    draw(_refs),
                )
                for case in ("lt", "eq", "gt")
            )
            steps.append(CasesStep(label, draw(_distinct(2)), draw(_distinct(2)), branches))
    return steps


@st.composite
def _theorems(draw):
    n_assumes = draw(st.integers(0, 2))
    assumes = tuple(
        AssumeAst(label=f"h{i+1}", fact=draw(_fact)) for i in range(n_assumes)
    )
    shows = tuple(draw(st.lists(_fact, min_size=1, max_size=2)))
    has_proof = draw(st.booleans())
    steps = None
    qed = ()
    if has_proof:
        # a proof block must contain at least one step to parse
        steps = tuple(_draw_steps(draw, [], 0, 1))
        qed = draw(_refs)
    return TheoremAst(
        name=draw(st.sampled_from(["t1", "lemma_x", "claim"])),
        # the grammar requires at least one tag, so () is unreachable
        tags=draw(st.sampled_from([("neutral",), ("euclidean",), ("neutral", "euclidean")])),
        points=_points,
        introduces=draw(st.sampled_from([(), ("F",), ("F", "G")])),
        assumes=assumes,
        shows=shows,
        uses=draw(st.sampled_from([(), ("other",), ("other", "third")])),
        steps=steps,
        qed_refs=qed,
    )


@settings(max_examples=150, deadline=None)
@given(_theorems())
def test_generated_theorem_round_trip(thm):
    ast = ScriptAst(items=(thm,))
    assert parse(format_script(ast)) == ast


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                DeclareAst(name="ax1", tags=("neutral",), uses=()),
                DeclareAst(name="ax2", tags=("euclidean",), uses=("ax1",)),
            ]
        ),
        min_size=0,
        max_size=2,
        unique_by=lambda d: d.name,
    )
)
def test_generated_declares_round_trip(items):
    ast = ScriptAst(items=tuple(items))
    assert parse(format_script(ast)) == ast


def test_construction_and_cases_round_trip():
    text = """\
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
    ast = parse(text)
    thm = ast.items[0]
    assert [type(s) for s in thm.steps] == [ExtendStep, LayoffStep, LemmaStep, CasesStep]
    assert thm.steps[0].seg == ("A", "B") and thm.steps[3].right == ("C", "D")
    assert type(thm.steps[3].branches[0]) is CaseBranch
    assert parse(format_script(ast)) == ast
    # the elaborator passes the construction and lemma steps through as parsed
    (block,) = elaborate_script(ast)
    assert all(e is s for e, s in zip(block.proof.steps[:3], thm.steps))


def test_fuzz_bytes_parse_or_syntax_error():
    # quick sanity slice of the larger acceptance fuzz run
    import random

    rng = random.Random(1234)
    for _ in range(2000):
        n = rng.randrange(0, 120)
        blob = bytes(rng.randrange(256) for _ in range(n))
        text = blob.decode("utf-8", errors="replace")
        try:
            result = parse(text)
            assert isinstance(result, ScriptAst)
        except SyntaxError:
            pass


# --- tokenizer against the original two-regex one -------------------------

from oracles import two_regex_tokenize  # noqa: E402
from ponscheck.script import _Parser, _tokenize  # noqa: E402


def _kind(tok):
    if tok == "\n":
        return "nl"
    if not tok:
        return "eof"
    if tok[0].isascii() and (tok[0].isalpha() or tok[0] == "_"):
        return "ident"
    if tok == "==" or tok in ":,[]()<":
        return "punct"
    return "junk"


def _stream(text):
    """(kind, value, line, col) per token; the column is the one a
    ParseError at that token would report."""
    p = _Parser(text)
    out = []
    for i, tok in enumerate(p.toks):
        err = p.error("", pos=i)
        kind = _kind(tok)
        out.append((kind, "" if kind in ("nl", "eof") else tok, err.line, err.col))
    return out


@pytest.mark.parametrize("filename", PROOF_FILENAMES + ("anglesum.conj",))
def test_tokenizer_matches_two_regex_oracle_on_corpus(filename):
    text = load_text(filename)
    assert _stream(text) == two_regex_tokenize(text)


# Script words and punctuation, near misses (dots, '=', digits), comments,
# every line boundary str.splitlines knows, and other Unicode whitespace.
_FUZZ_PIECES = (
    "theorem", "seg", "ang", "case", "c1.lt", "A", "Q12", "_x", "a.b.c", "a..b",
    "x.", ".y", "9", "==", "=", "<", "<=", ":", ",", "[", "]", "(", ")", "#", "# c",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", " ", " ", " ", "é", "�", "-", "!", "'",
)


def test_tokenizer_matches_two_regex_oracle_on_fuzz():
    import random

    rng = random.Random(20161)
    for i in range(2000):
        if i % 4 == 0:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            text = blob.decode("utf-8", errors="replace")
        else:
            text = "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randrange(0, 60)))
        assert _stream(text) == two_regex_tokenize(text), repr(text)


def _extend_chain(n):
    """A theorem of n chained `extend` steps, one token-heavy line each."""
    lines = [
        "theorem chain",
        "  tags: neutral",
        "  points A B C",
        "  assume h1: noncollinear A B C",
        "  show seg A B == seg A B",
        "  proof",
    ]
    prev = "B"
    for i in range(n):
        lines.append(f"    e{i}: extend A {prev} by seg A B as P{i}  # step {i}")
        prev = f"P{i}"
    lines.append("  qed from h1")
    return "\n".join(lines) + "\n"


def test_tokens_are_untracked_strings():
    import gc

    texts = [load_text(f) for f in PROOF_FILENAMES + ("anglesum.conj",)]
    texts.append(_extend_chain(2000))
    for text in texts:
        toks, lines = _tokenize(text)
        assert len(toks) == len(lines) > 1
        for tok in toks:
            assert type(tok) is str and not gc.is_tracked(tok), repr(tok)
        # one line-number object per source line, shared by its tokens
        for i in range(1, len(lines)):
            if lines[i] == lines[i - 1]:
                assert lines[i] is lines[i - 1]


def _mutate(rng, text):
    """One seeded line-level edit of a script: drop, duplicate or swap a
    line, or drop, duplicate or replace one token-sized piece in it."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.randrange(6)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        words = lines[i].split(" ")
        k = rng.randrange(len(words))
        if op == 3:
            del words[k]
        elif op == 4:
            words.insert(k, words[k])
        else:
            words[k] = rng.choice(_FUZZ_PIECES)
        lines[i] = " ".join(words)
    return "\n".join(lines) + rng.choice(("", "\n"))


def test_parse_errors_point_at_tokens_of_the_oracle_stream():
    import ast
    import random

    rng = random.Random(4021)
    sources = [load_text(f) for f in PROOF_FILENAMES]
    errors = 0
    for _ in range(2000):
        text = _mutate(rng, rng.choice(sources))
        try:
            parse(text)
        except ParseError as exc:
            errors += 1
            at = {(line, col): (kind, value) for kind, value, line, col in two_regex_tokenize(text)}
            assert (exc.line, exc.col) in at, (text, exc)
            kind, value = at[exc.line, exc.col]
            _, sep, got = exc.message.rpartition(", got ")
            if sep:
                shown = f"<{kind}>" if kind in ("nl", "eof") else value
                assert ast.literal_eval(got) == shown, (text, exc)
    assert errors > 500
