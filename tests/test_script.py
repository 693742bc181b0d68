"""Proof-script parser: grammar coverage, errors, round-trip stability."""

import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from ponscheck import elaborate
from ponscheck.corpus import PROOF_FILENAMES, load_text
from ponscheck.elaborate import collect_statements, elaborate_script
from ponscheck.script import (
    AssumeAst,
    DeclareAst,
    FactAst,
    InstAst,
    ParseError,
    ScriptAst,
    TheoremAst,
    format_script,
    parse,
    parse_conjecture,
)
from ponscheck.kernel import (
    CaseBranch,
    CasesStep,
    ExtendStep,
    LayoffStep,
    LemmaStep,
    Proof,
    ProofState,
    Ref,
    RuleStep,
    check_proof,
)
from ponscheck.rules import RuleSchema

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
    assert thm.proof is not None and len(thm.proof.steps) == 1
    step = thm.proof.steps[0]
    assert isinstance(step, RuleStep)
    assert step.rule_id == "SAS_ORD"
    assert step.inst.points == ("A", "B", "C", "A", "C", "B")
    assert step.inst.triples
    assert step.refs == (Ref("label", "h1"), Ref("label", "h1"), Ref("refl"))
    assert thm.proof.qed_refs == (Ref("label", "s1"),)
    assert thm.proof.line == 10


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
                RuleStep(
                    label=label,
                    fact=draw(_fact),
                    rule_id=draw(st.sampled_from(["SAS_ORD", "SEG_TRANS", "ARM_SUBST"])),
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
    proof = None
    if draw(st.booleans()):
        # a proof block must contain at least one step to parse
        proof = Proof(tuple(_draw_steps(draw, [], 0, 1)), draw(_refs))
    return TheoremAst(
        name=draw(st.sampled_from(["t1", "lemma_x", "claim"])),
        # the grammar requires at least one tag, so () is unreachable
        tags=draw(st.sampled_from([("neutral",), ("euclidean",), ("neutral", "euclidean")])),
        points=_points,
        introduces=draw(st.sampled_from([(), ("F",), ("F", "G")])),
        assumes=assumes,
        shows=shows,
        uses=draw(st.sampled_from([(), ("other",), ("other", "third")])),
        proof=proof,
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
    steps = thm.proof.steps
    assert [type(s) for s in steps] == [ExtendStep, LayoffStep, LemmaStep, CasesStep]
    assert steps[0].seg == ("A", "B") and steps[3].right == ("C", "D")
    assert type(steps[3].branches[0]) is CaseBranch
    assert parse(format_script(ast)) == ast
    # the elaborator passes the parsed proof through as it is
    (block,) = elaborate_script(ast)
    assert block.proof is thm.proof


def test_elaborated_statement_is_the_registrys(monkeypatch):
    """The elaborator builds each theorem's statement once, and
    collect_statements keys those very statements by name, a bad one as
    None; a declare has none."""
    built = []
    make = elaborate.make_statement
    monkeypatch.setattr(elaborate, "make_statement", lambda item: built.append(item.name) or make(item))
    bad = "theorem bad\n  tags: neutral\n  points A B\n  show seg A A == seg A B\n"
    blocks = elaborate_script(parse(BASIC + "\ndeclare post\n  tags: neutral\n\n" + bad))
    registry = collect_statements(blocks)
    assert built == ["demo", "bad"]
    assert registry == {"demo": blocks[0].statement, "bad": None}
    assert registry["demo"] is blocks[0].statement and blocks[2].error


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
from ponscheck import script as script_module  # noqa: E402
from ponscheck.script import KEYWORDS, _Parser  # noqa: E402


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


def _tokenized(text):
    """A parser that has walked every token of `text` on the token path,
    so its token and line lists cover the whole input."""
    p = _Parser(text)
    while p.tok:
        if p.tok == "\n":
            p.skip_nl()
        else:
            p.advance()
    return p


def _stream(text):
    """(kind, value, line, col) per token; the column is the one a
    ParseError at that token would report."""
    p = _tokenized(text)
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
        p = _tokenized(text)
        toks, lines = p.toks, p.lines
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


# --- the line path against the token path --------------------------------

# Every step shape the line path reads, each fact kind, both instantiation
# forms, dotted citations, nested cases, and the layoff and lemma
# steps it leaves to the token path.
_SHAPES = """\
theorem shapes
  tags: neutral
  points A B C D E F
  assume h1: seg A B == seg A C
  assume h2: noncollinear A B C
  show seg A B == seg A B
  proof
    r1: seg A B == seg A B by SEG_REFL[A,B] from refl
    r2: seg A B < seg A C by LT_SUBST[A,B,A,C] from h1, r1
    r3: ang A B C == ang A C B by SAS_ORD[(A,B,C),(A,C,B)] from h1, h1, refl
    r4: ang A B C < ang A C B by WHOLE_PART_ANG[A,B,C,D] from r3
    r5: between A B C by BETWEEN_SYM[C,B,A] from r4
    r6: noncollinear A B C by NC_TRANSFER[A,B,C,D] from h2
    e1: extend A B by seg A C as G
    l1: layoff A toward B by seg A C as H from r2
    m1: lemma foot(A,B,C) as J, K
    c1: cases seg A B vs seg A C
    case lt
      c2: cases seg A C vs seg B C
      case lt
        x1: absurd by ABSURD_LT_EQ[A,B,A,C] from c1.lt, c2.lt
        close absurd from x1
      case eq
        close goal from c2.eq
      case gt
        close goal from c2.gt, c1.lt
      close goal from c2
    case eq
      close goal from c1.eq
    case gt
      y1: seg A B == seg A B by SEG_REFL[A,B] from refl
      close goal from y1
  qed from c1
"""


_BLOCK_RE = re.compile(r"^(?:theorem|declare) ", re.M)


def _blocks_with_proofs():
    """The corpus theorem blocks that have a proof, and _SHAPES."""
    texts = [load_text(f) for f in PROOF_FILENAMES]
    blocks = []
    for text in texts:
        starts = [m.start() for m in _BLOCK_RE.finditer(text)] + [len(text)]
        blocks += [text[a:b] for a, b in zip(starts, starts[1:]) if "\n  proof" in text[a:b]]
    return blocks + [_SHAPES]


_BREAKS = ("\r\n", "\x85", "\u2028")
_SPACES = ("\t", "\u00a0", "\u3000", "  ")


def _edit_step_line(rng, text):
    """One seeded edit of one proof line of `text` (a line between `proof`
    and `qed`): spacing around punctuation, other whitespace, joined words,
    dotted or reserved names, a `sym` to reject, triples, comments, a repeated label
    or one of _mutate's token edits; sometimes other line breaks as well."""
    lines = text.split("\n")
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith("    ")])
    line = lines[i]
    op = rng.randrange(12)
    if op == 0:  # spacing around punctuation, removed or added
        for punct in rng.sample(["==", "<", ",", "[", "]", "(", ")", ":"], 3):
            if rng.random() < 0.5:
                line = line.replace(f" {punct} ", punct)
            else:
                line = line.replace(punct, f" {punct} ")
    elif op == 1:  # other whitespace between tokens
        line = line.replace(" ", rng.choice(_SPACES), rng.randrange(1, 4))
    elif op == 2:  # two words joined into one identifier, mostly after a reserved word
        words = line.split(" ")
        after = [k for k, w in enumerate(words[:-1]) if w in KEYWORDS]
        k = rng.choice(after) if after and rng.random() < 0.7 else rng.randrange(len(words) - 1)
        line = " ".join(words[:k] + [words[k] + words[k + 1]] + words[k + 2:])
    elif op == 3:  # a name replaced by a reserved word, a dotted name or another name
        names = re.findall(r"\b[A-Za-z_][A-Za-z0-9_]*\b", line)
        others = ["A.x", "c1.lt", "Z", "_q", "refl.x"]
        new = rng.choice(sorted(KEYWORDS) if rng.random() < 0.5 else others)
        line = re.sub(rf"\b{re.escape(rng.choice(names))}\b", new, line, count=1)
    elif op == 4:  # sym before one citation, which both paths reject
        head, sep, refs = line.partition(" from ")
        if sep:
            cites = refs.split(", ")
            k = rng.randrange(len(cites))
            cites[k] = "sym " + cites[k]
            line = head + sep + ", ".join(cites)
    elif op == 5:  # flat list and triples swapped
        if rng.random() < 0.7:
            six = r"\[(\w+),(\w+),(\w+),(\w+),(\w+),(\w+)\]"
            line = re.sub(six, r"[(\1,\2,\3),(\4,\5,\6)]", line)
        else:
            line = line.replace("),(", ",").replace("[(", "[").replace(")]", "]")
    elif op == 6:  # a trailing comment, with or without a space before it
        line += rng.choice(("  # why", "#x: seg A B", " #"))
    elif op == 7:  # the label of another step
        labels = re.findall(r"^    \s*(\w+):", "\n".join(lines), re.M)
        line = re.sub(r"^(\s*)\w+:", lambda m: m.group(1) + rng.choice(labels) + ":", line)
    elif op == 8:  # a whole case/close keyword changed
        line = line.replace("case lt", rng.choice(("case eq", "case  lt", "caselt", "case lt x")))
        line = line.replace("close goal", rng.choice(("close absurd", "close", "close goal goal")))
    else:  # one of _mutate's line or token edits
        return _mutate(rng, text)
    lines[i] = line
    text = "\n".join(lines)
    if rng.random() < 0.2:
        text = text.replace("\n", rng.choice(_BREAKS))
    return text


def _nested_cases(depth):
    """Case splits nested `depth` deep in their first branch."""
    lines = ["theorem deep", "  tags: neutral", "  points A B C", "  show seg A B == seg A B"]
    lines.append("  proof")
    for d in range(depth):
        lines += [f"    c{d}: cases seg A B vs seg A C", "    case lt"]
    lines.append("      r: seg A B == seg A B by SEG_REFL[A,B] from refl")
    # each split, innermost first: close its lt branch, then its eq and gt branches
    close = "    close goal from r"
    lines += [close, "    case eq", close, "    case gt", close] * depth
    lines.append("  qed from c0")
    return "\n".join(lines) + "\n"


def _outcome(text):
    """The parse of `text` with every line number, or its error's fields."""
    try:
        return repr(parse(text))
    except ParseError as exc:
        return (exc.message, exc.line, exc.col, exc.expected)


# Rows the loop of parse_steps reads inside case branches: blank and
# comment-only rows between a `case` row and its `close` row, a branch
# whose `close` row directly follows its `case` row, and a flat list with
# other whitespace around its names.
_BRANCH_ROWS = """\
theorem rows
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  show seg A B == seg A C
  proof
    c1: cases seg A B vs seg A C
    case lt

      # nothing yet
      close goal from h1
    case eq  # why
    # between

      r1: seg A B == seg A B by SEG_REFL[ A ,\tB\u3000] from refl
      # after a step
      close goal from c1.eq
    case gt
      close goal from h1, c1.gt
  qed from c1
"""

# Edits of _BRANCH_ROWS: a `close` the line path must reject right after
# its `case` row (a reserved word cited, a token after the refs), and a
# `case` row it must reject before a `close` row it could take.
_BRANCH_EDITS = (
    ("close goal from h1, c1.gt", "close goal from h1, case"),
    ("close goal from h1, c1.gt", "close goal from sym refl"),
    ("close goal from h1, c1.gt", "close goal from h1, sym c1.gt"),
    ("close goal from h1, c1.gt", "close goal from h1, c1.gt x"),
    ("close goal from h1, c1.gt", "close goal from h1 c1.gt"),
    ("case gt", "case gt x"),
    ("case gt", "case lt"),
    ("case gt", "case"),
)


def _with_gaps(text):
    """`text` with a blank row and a comment-only row after every proof row."""
    head, sep, body = text.partition("  proof\n")
    body = re.sub(r"(?m)^(    .*)$", r"\1\n\n      # gap", body)
    return head + sep + body


def _branch_texts():
    """_BRANCH_ROWS, its edits, and case and SEG_REFL runs with and
    without gap rows, each also with CRLF line ends."""
    texts = [_BRANCH_ROWS] + [_BRANCH_ROWS.replace(a, b, 1) for a, b in _BRANCH_EDITS]
    for script in (_cases_script(4), _refl_script(6), _nested_cases(3)):
        texts += [script, _with_gaps(script)]
    return texts + [t.replace("\n", "\r\n") for t in texts]


def _line_path_off(monkeypatch):
    """Switch the line path off: none of its patterns matches any row, so
    the token path reads every row."""
    never = re.compile(r"(?!)")
    for name in ("_FACT_RE", "_WORDS_RE"):
        monkeypatch.setattr(script_module, name, never)


def _step_labels(steps):
    """The labels of `steps` and of every step in their case branches."""
    out = []
    for step in steps:
        out.append(step.label)
        for branch in getattr(step, "branches", ()):
            out += _step_labels(branch.steps)
    return out


def test_the_line_path_builds_what_the_token_path_builds(monkeypatch):
    import random

    rng = random.Random(1613)
    blocks = _blocks_with_proofs()
    texts = blocks + [_extend_chain(30)] + [_nested_cases(d) for d in (63, 64, 65)]
    texts += _branch_texts()
    texts += [_edit_step_line(rng, rng.choice(blocks)) for _ in range(2400)]
    normal = [_outcome(t) for t in texts]
    _line_path_off(monkeypatch)
    built = []
    parse_step = _Parser.parse_step

    def spy(self, labels):
        built.append(parse_step(self, labels))
        return built[-1]

    monkeypatch.setattr(_Parser, "parse_step", spy)
    for text, got in zip(texts, normal):
        built.clear()
        assert _outcome(text) == got, text
        if isinstance(got, str):  # parsed: the token path read every step, in order
            seen = [s.label for s in built]
            ast = parse(text)
            steps = [s for item in ast.items if getattr(item, "proof", None) for s in item.proof.steps]
            assert seen == _step_labels(steps), text
    errors = sum(isinstance(o, tuple) for o in normal)
    assert 600 < errors < len(texts) - 600


def _cases_script(n):
    """n case splits whose three branches all close on the hypothesis."""
    lines = [
        "theorem split",
        "  tags: neutral",
        "  points A B C",
        "  assume h1: seg A B == seg A C",
        "  show seg A B == seg A C",
        "  proof",
    ]
    for k in range(n):
        lines.append(f"    c{k}: cases seg A B vs seg B C")
        for kind in ("lt", "eq", "gt"):
            lines += [f"    case {kind}", f"      close goal from h1, c{k}.{kind}"]
    lines.append(f"  qed from c{n - 1}")
    return "\n".join(lines) + "\n"


def _refl_script(n):
    """n SEG_REFL steps."""
    lines = [
        "theorem refl_run",
        "  tags: neutral",
        "  points A B C D",
        "  assume h1: noncollinear A B C",
        "  show seg A B == seg A B",
        "  proof",
    ]
    for k in range(n):
        a, b = ("AB", "CD", "BD")[k % 3]
        lines.append(f"    r{k}: seg {a} {b} == seg {a} {b} by SEG_REFL[{a},{b}] from refl")
    lines.append(f"  qed from r{n - 1}")
    return "\n".join(lines) + "\n"


def _with_notes(text):
    """`text` with a blank row after every 97th row and a comment-only row
    after every 89th."""
    out = []
    for i, line in enumerate(text.splitlines(), 1):
        out.append(line)
        if i % 97 == 0:
            out.append("")
        if i % 89 == 0:
            out.append("      # note")
    return "\n".join(out) + "\n"


# sha256 of repr(parse(text)), every line number included, for 1000-step
# scripts with blank and comment-only rows among their proof rows.
LONG_PARSE_DIGESTS = {
    "extend": "7669347d6595df4d1b3f2758dc98eccdbbf3a795648ff183d75930bd0741cb3d",
    "cases": "5449bd7a83e442ad49644a4d93c03b93b774d5db03d05cd4cd30b302bf6b231f",
    "refl": "888e1506dfee7bac4622da4234acc654bdd6d7dcf24c337d04cc7393951969fa",
}


@pytest.mark.parametrize("shape", sorted(LONG_PARSE_DIGESTS))
def test_long_script_parses_are_pinned(shape):
    make = {"extend": _extend_chain, "cases": _cases_script, "refl": _refl_script}[shape]
    text = _with_notes(make(1000))
    assert re.search(r"(?m)^$", text) and re.search(r"(?m)^\s*# note$", text)
    digest = hashlib.sha256(repr(parse(text)).encode()).hexdigest()
    assert digest == LONG_PARSE_DIGESTS[shape]


# Calls a strict check of a 1000-step script makes: a split knows only its
# own label (its branches have no steps, so they only name their
# assumptions), and a premise-free rule step instantiates its
# conclusions once, at its points.
KERNEL_CALLS = {
    "cases": (ProofState, "know", 1 + 1000),
    "refl": (RuleSchema, "instantiate_conclusions", 1000),
}


@pytest.mark.parametrize("shape", sorted(KERNEL_CALLS))
def test_long_script_kernel_call_counts(monkeypatch, shape):
    cls, name, want = KERNEL_CALLS[shape]
    make = {"cases": _cases_script, "refl": _refl_script}[shape]
    (block,) = blocks = elaborate_script(parse(make(1000)))
    calls = []
    method = getattr(cls, name)

    def counted(*args):
        calls.append(None)
        return method(*args)

    monkeypatch.setattr(cls, name, counted)
    report = check_proof(block.statement, block.proof, collect_statements(blocks), strict=True)
    assert report.status == "ok", report.error
    assert len(calls) == want


# Step kinds the line path leaves to the token path.
_TOKEN_PATH_STEPS = ("layoff", "lemma")


def test_the_token_path_reads_no_valid_step_line(monkeypatch):
    """Only the steps named in _TOKEN_PATH_STEPS are tokenized; parse_step
    builds no other step.  (parse_proof reads a case split's `case` and
    `close` rows on both paths, so the tokenized lines stand in for a spy
    on which path read them.)"""
    built = []
    parse_step = _Parser.parse_step

    def spy(self, labels):
        built.append(parse_step(self, labels))
        return built[-1]

    monkeypatch.setattr(_Parser, "parse_step", spy)
    texts = [load_text(f) for f in PROOF_FILENAMES]
    texts += [_SHAPES, _extend_chain(40), _cases_script(5), _refl_script(15)]
    for text in texts:
        p = _Parser(text)
        p.parse_script()
        by_line = {}
        for line, tok in zip(p.lines, p.toks[:-1]):  # the end token has no line
            by_line.setdefault(line, []).append(tok)
        for toks in by_line.values():
            assert toks[1] == ":" and toks[2] in _TOKEN_PATH_STEPS, toks
    assert built and {type(s) for s in built} == {LayoffStep, LemmaStep}


# --- statement rows on both paths ------------------------------------------

# Statement rows of every kind: both block kinds, two tags, `introduces`,
# an assumption of each fact kind, two `show` rows, `uses` lists, and a
# proof's `proof` and `qed` rows.
_STATEMENTS = """\
declare postulate_a
  tags: euclidean

declare wrapper
  tags: neutral, euclidean
  uses postulate_a, other

theorem stated
  tags: neutral
  points A B C D
  introduces E F
  assume h1: seg A B == seg A C
  assume h2: noncollinear A B C
  assume h3: ang A B C < ang A C B
  assume h4: between A D B
  show seg A B < seg A C
  show absurd
  uses wrapper

theorem proved
  tags: neutral
  points A B C
  assume h1: seg A B == seg A C
  show seg A B == seg A C
  uses stated
  proof
    r1: seg A B == seg A B by SEG_REFL[A,B] from refl
  qed from h1, r1
"""

_STATEMENT_WORDS = ("theorem", "declare", "tags", "points", "introduces", "assume", "show",
                    "uses", "proof", "qed", "conjecture")


def _first_word(row):
    """The first token of `row` if it is a word, else ''."""
    m = re.match(r"\s*([A-Za-z_]\w*)", row.split("#")[0])
    return m[1] if m else ""


def _statement_rows(text):
    """The line numbers of the statement rows of `text`."""
    return [n for n, row in enumerate(text.splitlines(), 1) if _first_word(row) in _STATEMENT_WORDS]


def _edit_statement_row(rng, text):
    """One seeded edit of one statement row of `text`: a reserved word, a
    dotted name or `sym` for a name, a repeated point or label, an unknown
    tag, a dropped or an added colon, an extra or a missing token, `absurd`
    or a step's tail in a fact row, other spacing, or a trailing comment;
    sometimes CRLF line ends as well."""
    lines = text.split("\n")
    i = rng.choice(_statement_rows(text)) - 1
    line = lines[i]
    names = list(re.finditer(r"(?<![\w.])[A-Za-z_]\w*", line))
    op = rng.randrange(12)
    if op == 0:  # a name made a reserved word, a dotted name or a `sym` citation
        m = rng.choice(names)
        new = rng.choice(sorted(KEYWORDS) + ["a.b", "c1.lt", "sym " + m[0], "Q9"])
        line = line[: m.start()] + new + line[m.end():]
    elif op == 1:  # a point repeated, or introduced although it is a point already
        line = re.sub(r"^(\s*(?:points|introduces)\s+)(\w+)", rng.choice((r"\1\2 \2", r"\1A \2")), line)
    elif op == 2:  # the label of another assumption
        labels = re.findall(r"^\s*assume\s+(\w+)", text, re.M)
        line = re.sub(r"^(\s*assume\s+)\w+", lambda m: m[1] + rng.choice(labels or ["h1"]), line)
    elif op == 3:  # an unknown tag
        line = re.sub(r"neutral|euclidean", rng.choice(("hyperbolic", "Neutral", "neutral.x", "tags")), line)
    elif op == 4:  # a colon dropped
        line = line.replace(":", "", 1)
    elif op == 9:  # a colon after the row's first word
        line = re.sub(r"^(\s*\w+)", r"\1" + rng.choice((":", " :")), line)
    elif op == 10:  # an `absurd` fact
        line = re.sub(r"(:|show)\s.*", r"\1 absurd", line)
    elif op == 11:  # a step's tail
        line += rng.choice((" by SEG_REFL[A,B] from refl", " by R[(A,B,C),(A,B,C)] from h1"))
    elif op in (5, 6):  # a token-sized piece added, or a word dropped
        words = line.split(" ")
        k = rng.randrange(len(words))
        if op == 5:
            words.insert(k + 1, rng.choice(("A", "x", ",", ":", "==", "from", "a.b", "9", "(")))
        elif words[k]:
            del words[k]
        line = " ".join(words)
    elif op == 7:  # other spacing: tabs, doubled spaces, spaces around punctuation
        line = line.replace(" ", rng.choice(("\t", "  ", " \t", "\u3000")), rng.randrange(1, 4))
        line = line.replace(",", rng.choice((" ,", ", ", " , ", ",")))
        line = line.replace(":", rng.choice((" :", ": ", ":")))
    else:  # a trailing comment, with or without a space before it
        line += rng.choice(("  # why", "#x: seg A B", " #", "\t# points A"))
    lines[i] = line
    text = "\n".join(lines)
    if rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
    return text


def _conjecture_outcome(text):
    try:
        return repr(parse_conjecture(text))
    except ParseError as exc:
        return (exc.message, exc.line, exc.col, exc.expected)


def test_the_line_path_reads_statement_rows_as_the_token_path_does(monkeypatch):
    """Seeded edits of statement rows parse to the same AST, line numbers
    included, or fail with the same message, line and column, with the
    line path on and off."""
    import random

    rng = random.Random(2711)
    sources = [load_text(f) for f in PROOF_FILENAMES] + [_STATEMENTS]
    texts = sources + [_edit_statement_row(rng, rng.choice(sources)) for _ in range(1200)]
    conj = load_text("anglesum.conj")
    conjectures = [conj] + [_edit_statement_row(rng, conj) for _ in range(100)]
    normal = [_outcome(t) for t in texts]
    normal_conj = [_conjecture_outcome(t) for t in conjectures]
    _line_path_off(monkeypatch)
    for text, got in zip(texts, normal):
        assert _outcome(text) == got, text
    for text, got in zip(conjectures, normal_conj):
        assert _conjecture_outcome(text) == got, text
    for outcomes in (normal, normal_conj):
        errors = sum(isinstance(o, tuple) for o in outcomes)
        assert len(outcomes) // 5 < errors < len(outcomes) - len(outcomes) // 5


def _spaced(text):
    """`text` with tabs, doubled spaces and trailing comments in its
    statement rows, spaces around their commas, and CRLF line ends."""
    out = []
    for n, row in enumerate(text.splitlines(), 1):
        if _first_word(row) in _STATEMENT_WORDS:
            row = re.sub(r"(\S) ", "\\1\t", row.replace(", ", " , "), count=1)
            row = re.sub(r"(\S) ", "\\1  ", row, count=1) + ("  # note" if n % 2 else "#")
        out.append(row)
    return "\r\n".join(out) + "\r\n"


def test_the_token_path_reads_every_row_only_with_the_line_path_off(monkeypatch):
    """A spy on skip_nl, which tokenizes a row for the token path.  With
    the line path on it tokenizes no statement row of a valid script, its
    spacing and comments changed or not; with the line path's patterns
    patched to miss it tokenizes every row with tokens, once, in order."""
    tokenized = []
    skip_nl = _Parser.skip_nl

    def spy(self):
        before = len(self.toks)
        skip_nl(self)
        if len(self.toks) > before and self.toks[-1]:  # a row, not the end
            tokenized.append(self.lines[-1])

    monkeypatch.setattr(_Parser, "skip_nl", spy)
    texts = [load_text(f) for f in PROOF_FILENAMES] + [_STATEMENTS]
    texts += [_spaced(t) for t in texts]
    asts = []
    for text in texts:
        tokenized.clear()
        asts.append(repr(parse(text)))
        assert not set(tokenized) & set(_statement_rows(text)), text
    _line_path_off(monkeypatch)
    for text, ast in zip(texts, asts):
        tokenized.clear()
        assert repr(parse(text)) == ast
        rows = [n for n, row in enumerate(text.splitlines(), 1) if row.split("#")[0].strip()]
        assert tokenized == rows
