"""The proof-script text format.

Line oriented: one statement per line, whitespace-insensitive within a
line, comments from ``#`` to end of line.  A file is a sequence of
``theorem`` blocks (statement, optionally followed by a proof) and
``declare`` blocks (statement-free dependency stubs).

Each row with tokens is matched whole by the line path's compiled
pattern for what may come there: _FACT_RE for a proof step and a
statement row that starts with `assume` or `show`, _WORDS_RE for any
other row (in a case branch a row is tried as `close` first, and after a
step one that _FACT_RE misses as `qed`).  Its node is built from the
groups without tokenizing.  A row goes to the token path only when its
pattern misses it (as a dotted name outside a citation does), or a group
fails a check the token path makes: a reserved word, a repeated point or
label, an unknown tag, an `absurd` assumption, or a step, `close` or
`qed` row out of place.  That path reads the row's tokens by recursive
descent and alone reports errors, with line, column, and the
expected-token set.  A token is the plain string the token regex
matched; a newline string closes each line that had tokens, the empty
string ends the input, and a parallel list holds each token's line
number (the garbage collector does not track strings).  A column is
worked out only when an error is raised, by matching that one source
line again.  The parser never raises anything but ParseError on
malformed input, whatever the bytes were.  It emits the kernel's steps
and proofs, with a segment as a point pair and a citation as its name: a
rule step keeps its fact and points as written (format_script prints
them, the kernel resolves them), and a proof its qed line.  It resolves
no name; the kernel does.  Syntax nodes, blocks and scripts are
NamedTuples (see kernel.node), compared without their source line, so
that parse(format_script(x)) == x.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union

from .kernel import (
    CaseBranch,
    CasesStep,
    ExtendStep,
    FactAst,
    LayoffStep,
    LemmaStep,
    Proof,
    RuleStep,
    Step,
    node,
)

KEYWORDS = frozenset(
    """theorem declare tags points introduces assume show uses proof qed
    from by as extend layoff toward cases vs case close goal absurd lemma
    seg ang between noncollinear refl sym lt eq gt""".split()
)

TAG_NAMES = ("neutral", "euclidean")

_MAX_CASE_DEPTH = 64
_KINDS = ("lt", "eq", "gt")  # the branches of a case split, in order
_T = TypeVar("_T")
_new = tuple.__new__  # builds a node without its Python-level __new__


class ParseError(SyntaxError):
    """Parse failure with position and the expected-token set attached."""

    def __init__(self, message: str, line: int, col: int, expected: Tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        where = f"line {line}, col {col}: {message}"
        if self.expected:
            where += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(where)
        self.lineno = line
        self.offset = col


# ---------------------------------------------------------------------------
# AST


@node
class AssumeAst(NamedTuple):
    label: str
    fact: FactAst
    line: int = 0


@node
class TheoremAst(NamedTuple):
    name: str
    tags: Tuple[str, ...]
    points: Tuple[str, ...]
    introduces: Tuple[str, ...]
    assumes: Tuple[AssumeAst, ...]
    shows: Tuple[FactAst, ...]
    uses: Tuple[str, ...]
    proof: Optional[Proof]  # None when the block has no proof
    line: int = 0


@node
class DeclareAst(NamedTuple):
    name: str
    tags: Tuple[str, ...]
    uses: Tuple[str, ...]
    line: int = 0


BlockAst = Union[TheoremAst, DeclareAst]


@node
class ScriptAst(NamedTuple):
    items: Tuple[BlockAst, ...]


# ---------------------------------------------------------------------------
# Tokenizer

# One alternation, tried in order: punctuation, an identifier (dotted
# for citations such as ``c1.lt``), or any other single character.  No
# groups, so findall returns the matched strings themselves.
_TOKEN_RE = re.compile(
    r"==|[:,\[\]()<]"
    r"|[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*"
    r"|\S"
)

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_NL = "\n"  # closes every source line that had tokens
_EOF = ""  # ends the stream

# Line path: two patterns, for fullmatch on a row without its comment.
# Two words need \s+ between them, else the tokenizer reads one
# identifier; names are undotted except in citations, and the parser
# checks them against KEYWORDS.
_N = r"[A-Za-z_][A-Za-z0-9_]*"
_DOTTED = _N + r"(?:\.[A-Za-z0-9_]+)*"
_NAMES, _REFS = rf"({_N}(?:\s*,\s*{_N})*)", rf"({_DOTTED}(?:\s*,\s*{_DOTTED})*)"
_SEG, _ANG = rf"seg\s+({_N})\s+({_N})", rf"ang\s+({_N})\s+({_N})\s+({_N})"
_TRIPLE = rf"\(\s*({_N})\s*,\s*({_N})\s*,\s*({_N})\s*\)"
# The one fact grammar: a fact row (`LABEL:` for a step, `assume LABEL:` or
# `show`) with a step's optional `by ... from ...` tail; after `LABEL:` also
# `extend` or `cases`, so the word after the label picks the alternative.
# Groups, from 0: label 0, assume's label 1; seg 2-6 (op 4), ang 7-13 (op
# 10), between/noncollinear 14-17; rule 18, triples 19-24, flat list 25,
# refs 26; extend 27-31; cases 32-35.
_FACT_RE = re.compile(
    rf"\s*(?:({_N})\s*:\s*|assume\s+({_N})\s*:\s*|show\s+)(?:(?:{_SEG}\s*(==|<)\s*{_SEG}"
    rf"|{_ANG}\s*(==|<)\s*{_ANG}|(between|noncollinear)\s+({_N})\s+({_N})\s+({_N})|absurd)"
    rf"(?:\s+by\s+({_N})\s*\[\s*(?:{_TRIPLE}\s*,\s*{_TRIPLE}|{_NAMES})\s*\]\s*from\s+{_REFS}|)"
    rf"|extend\s+({_N})\s+({_N})\s+by\s+{_SEG}\s+as\s+({_N})|cases\s+{_SEG}\s+vs\s+{_SEG})\s*"
)
_MISS = (None,) * _FACT_RE.groups  # the groups of a row _FACT_RE missed
# The other rows, each led by its word.  Groups: `close` kind 1 (None for
# `qed`) and their refs 2; `case` kind 3; theorem or declare 4 and its name
# 5; the names of points or introduces 6; proof; the names of uses or tags 7.
_WORDS_RE = re.compile(
    rf"\s*(?:(?:qed|close\s+(goal|absurd))\s+from\s+{_REFS}|case\s+(lt|eq|gt)"
    rf"|(theorem|declare)\s+({_N})|(?:points|introduces)((?:\s+{_N})+)|proof"
    rf"|(?:uses\s+|tags\s*:\s*){_NAMES})\s*"
)


def _fact(g: Tuple[Optional[str], ...]) -> FactAst:
    """The fact of a fact row, from its _FACT_RE groups."""
    if g[2]:
        return _new(FactAst, ("seg_eq" if g[4] == "==" else "seg_lt", (g[2], g[3], g[5], g[6])))
    if g[7]:
        return _new(FactAst, ("ang_eq" if g[10] == "==" else "ang_lt", g[7:10] + g[11:14]))
    return _new(FactAst, (g[14], g[15:18]) if g[14] else ("absurd", ()))


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Both paths of the module docstring.  `tok` is the current token and
    `pos` its index in `toks`, which skip_nl extends one source line at a
    time; `row` is the next source line not yet read.  Between rows `tok`
    is the newline ending `toks`; a row goes to the token path by setting
    `row` to it and calling skip_nl.  parse_proof walks the rows itself,
    and the statement readers ask `line` for theirs.

    Token strings alone identify words and punctuation: only an ident can
    spell a word (any other token is punctuation or one character that
    cannot start one), and the newline and end tokens cannot be matched.
    Columns are not kept; an error finds its column by matching that one
    source line again.
    """

    def __init__(self, text: str) -> None:
        self.rows = text.splitlines()
        self.row = 0
        self.toks: List[str] = []
        self.lines: List[int] = []  # each token's source line
        self.pos, self.tok = -1, _NL
        self.cited: Dict[str, Optional[Tuple[str, ...]]] = {}
        self.seen: Tuple[int, Optional[str], Optional[re.Match]] = (-1, None, None)

    # -- line path

    def line(self, *words: str) -> Optional[re.Match]:
        """Between rows, the line path's match of the next row with tokens if
        its first word is in `words`: by _FACT_RE for `assume` and `show` rows,
        else by _WORDS_RE.  `row` moves to that row, which is matched once
        however often asked for, and tokenized if the line path missed it."""
        if self.tok != _NL:
            return None
        i = self.row
        if i != self.seen[0]:
            rows, first, m = self.rows, None, None
            while i < len(rows):
                text = rows[i].partition("#")[0]
                if text and not text.isspace():
                    first = text.split(None, 1)[0].partition(":")[0]  # its first token, if matched
                    m = (_FACT_RE if first in ("assume", "show") else _WORDS_RE).fullmatch(text)
                    break
                i += 1
            self.row, self.seen = i, (i, first, m)
            if m is None:
                self.skip_nl()
        return self.seen[2] if self.seen[1] in words else None

    def at(self, word: str) -> bool:
        """Whether the next row with tokens starts with `word`."""
        return self.line(word) is not None or self.tok == word

    def take(self) -> int:
        """Read the matched row; its line."""
        self.row += 1
        return self.row

    # -- token plumbing

    def advance(self) -> str:
        tok = self.tok
        if tok:
            self.pos += 1
            self.tok = self.toks[self.pos]
        return tok

    def error(
        self, message: str, expected: Tuple[str, ...] = (), pos: Optional[int] = None
    ) -> ParseError:
        """A ParseError placed at token `pos` (default: the current one)."""
        if pos is None:
            pos = self.pos
        line, tok = self.lines[pos], self.toks[pos]
        if not tok:
            return ParseError(message, line, 1, expected)
        raw = self.rows[line - 1]
        if tok == _NL:
            return ParseError(message, line, len(raw) + 1, expected)
        first = pos
        while first and self.lines[first - 1] == line:
            first -= 1
        matches = _TOKEN_RE.finditer(raw)  # a comment only adds tokens after it
        for _ in range(pos - first):
            next(matches)
        return ParseError(message, line, next(matches).start() + 1, expected)

    def fail(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        tok = self.tok
        got = "<nl>" if tok == _NL else "<eof>" if not tok else tok
        return self.error(f"{message}, got {got!r}", expected)

    def at_ident(self) -> bool:
        return self.tok[:1] in _IDENT_START

    def expect(self, value: str) -> str:
        if self.tok != value:
            raise self.fail(f"expected {value!r}", (value,))
        return self.advance()

    def accept(self, value: str) -> bool:
        """Consume the current token if it is `value`; report whether it was."""
        if self.tok == value:
            self.advance()
            return True
        return False

    def skip_nl(self) -> None:
        """Step past a newline: tokenize the next source line that has
        tokens (its tokens share one line number), or end the stream."""
        if self.tok != _NL:
            return
        rows, row = self.rows, self.row
        found: List[str] = []
        while not found and row < len(rows):
            found = _TOKEN_RE.findall(rows[row].split("#", 1)[0])
            row += 1
        self.row = row
        found.append(_NL if found else _EOF)
        self.toks += found
        self.lines += [row if len(found) > 1 else row + 1] * len(found)
        self.pos += 1
        self.tok = self.toks[self.pos]

    def end_line(self) -> None:
        """The line must end here; its newline stays for the line path."""
        if self.tok and self.tok != _NL:
            raise self.fail("expected end of line", ("newline",))

    def cite(self, text: str) -> Optional[Tuple[str, ...]]:
        """A matched refs group's citations; None if one is a reserved word
        other than `refl`."""
        if text not in self.cited:
            refs = (text,) if text.isidentifier() else tuple("".join(text.split()).split(","))
            ok = all(r == "refl" or r not in KEYWORDS for r in refs)
            self.cited[text] = refs if ok else None
        return self.cited[text]

    def ident(self, what: str, allow_dots: bool = False, allow_keyword: bool = False) -> str:
        tok = self.tok
        if tok[:1] not in _IDENT_START:
            raise self.fail(f"expected {what}", (what,))
        if not allow_dots and "." in tok:
            raise self.error(f"{what} may not contain '.'", (what,))
        if not allow_keyword and tok in KEYWORDS:
            raise self.error(f"reserved word {tok!r} cannot be used as {what}", (what,))
        self.advance()
        return tok

    def point(self) -> str:
        return self.ident("point name")

    def comma_list(self, item: Callable[[], _T]) -> Tuple[_T, ...]:
        """One or more items, separated by commas."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return tuple(items)

    # -- grammar

    def parse_script(self) -> ScriptAst:
        items: List[BlockAst] = []
        while True:
            m = self.line("theorem", "declare")
            if m and m[5] not in KEYWORDS:
                word, name, line = m[4], m[5], self.take()
            else:
                self.skip_nl()
                if not self.tok:
                    break
                if self.tok not in ("theorem", "declare"):
                    raise self.fail("expected a block", ("theorem", "declare"))
                line, word = self.lines[self.pos], self.advance()
                name = self.ident("theorem name")
                self.end_line()
            tags = self.parse_names("tags")
            if word == "theorem":
                items.append(self.parse_theorem(name, tags, line))
            else:
                items.append(_new(DeclareAst, (name, tags, self.parse_names("uses"), line)))
        return ScriptAst(tuple(items))

    def parse_names(self, word: str) -> Tuple[str, ...]:
        """The tags of a `tags:` row, or the names of a `uses` row if one comes next."""
        if word == "uses" and not self.at("uses"):
            return ()
        m = self.line(word)
        names = tuple("".join(m[7].split()).split(",")) if m else ()
        ok = set(names).issubset(TAG_NAMES) if word == "tags" else KEYWORDS.isdisjoint(names)
        if names and ok:
            self.take()
            return names
        self.skip_nl()
        self.expect(word)
        if word == "tags":
            self.expect(":")
        names = self.comma_list(self.tag_name if word == "tags" else lambda: self.ident("name"))
        self.end_line()
        return names

    def tag_name(self) -> str:
        if self.tok not in TAG_NAMES:
            raise self.fail("expected a tag", TAG_NAMES)
        return self.advance()

    def parse_theorem(self, name: str, tags: Tuple[str, ...], line: int) -> TheoremAst:
        points = self.parse_points("points")
        introduces = self.parse_points("introduces", points) if self.at("introduces") else ()
        assumes, shows, labels = [], [], set()
        while self.at("assume"):
            assumes.append(_new(AssumeAst, self.parse_fact_row("assume", labels)))
        while self.at("show"):
            shows.append(self.parse_fact_row("show", labels)[1])
        if not shows:
            self.skip_nl()
            raise self.fail("expected 'show'", ("show",))
        uses = self.parse_names("uses")
        proof = None
        if self.at("proof"):
            if self.line("proof"):
                self.take()
            else:
                self.advance()
                self.end_line()
            proof = self.parse_proof(labels)
        body = (name, tags, points, introduces, tuple(assumes), tuple(shows), uses, proof, line)
        return _new(TheoremAst, body)

    def parse_points(self, word: str, taken: Tuple[str, ...] = ()) -> Tuple[str, ...]:
        """A `points` or `introduces` row: its point names, each new and none in `taken`."""
        m = self.line(word)
        names = tuple(m[6].split()) if m else ()
        if names and KEYWORDS.isdisjoint(names) and len({*names, *taken}) == len(names + taken):
            self.take()
            return names
        self.skip_nl()
        self.expect(word)
        points: List[str] = []
        while self.at_ident():
            p = self.point()
            if p in points or p in taken:
                raise self.error(f"duplicate point {p}", pos=self.pos - 1)
            points.append(p)
        if not points:
            empty = "expected a point name" if taken else "expected at least one point"
            raise self.fail(empty, ("point name",))
        self.end_line()
        return tuple(points)

    def parse_fact_row(self, word: str, labels: set) -> Tuple[str, FactAst, int]:
        """An `assume` row, whose label must be new to `labels` and is added
        to them, or a `show` row (label ""): its label, fact and line."""
        m = self.line(word)
        g = m.groups() if m else _MISS
        label, fact = g[1] or "", m and not (g[0] or g[18] or g[27] or g[32]) and _fact(g)
        ok = word == "show" or fact and fact[0] != "absurd" and label not in labels
        if fact and ok and KEYWORDS.isdisjoint((label, *fact[1])):
            labels.add(label)
            return label, fact, self.take()
        self.skip_nl()
        at = self.pos
        self.advance()
        if word == "assume":
            label = self.ident("hypothesis label")
            if label in labels:
                raise self.error(f"duplicate label {label}", pos=at)
            self.expect(":")
        labels.add(label)
        fact = self.parse_fact(allow_absurd=word == "show")
        self.end_line()
        return label, fact, self.lines[at]

    def parse_proof(self, labels: set) -> Proof:
        """A proof body, case branches included, and its `qed` row."""
        rows, i, n = self.rows, self.row, len(self.rows)
        cite, disjoint = self.cite, KEYWORDS.isdisjoint
        steps: List[Step] = []
        # per open case split, innermost last: its header (a CasesStep without
        # branches), its branches, the steps it goes into, its `case` row's line
        splits: List[list] = []
        while True:
            while i < n:  # the next row with tokens, without its comment
                text = rows[i]
                if "#" in text:
                    text = text[: text.index("#")]
                if text and not text.isspace():
                    break
                i += 1
            else:
                text = ""
            split = splits[-1] if splits else None
            if split and not split[3]:  # a `case` row is due
                kind = _KINDS[len(split[1])]
                m = _WORDS_RE.fullmatch(text)
                if m and m[3] == kind:
                    i += 1
                    split[3] = i
                else:
                    self.row = i
                    self.skip_nl()
                    split[3] = self.lines[self.pos]
                    self.expect("case")
                    if not self.accept(kind):
                        raise self.fail(f"expected case {kind!r}", (kind,))
                    self.end_line()
                    i = self.row
                steps = []
                continue
            step = refs = None
            m = split and _WORDS_RE.fullmatch(text)
            if m and m[1] and (refs := cite(m[2])):  # a `close` row ends the branch
                i += 1
                close = m[1]
            elif m := _FACT_RE.fullmatch(text):
                g = m.groups()
                label = g[0]
                if label and label not in labels and label not in KEYWORDS:
                    if g[18]:  # a rule step
                        fact, cited = _fact(g), cite(g[26])
                        flat = g[25]  # names and commas, maybe with whitespace around them
                        inst = g[19:25] if flat is None else tuple("".join(flat.split()).split(","))
                        if cited and disjoint(fact[1] + inst):  # its points
                            i += 1
                            step = _new(RuleStep, (label, fact, g[18], inst, flat is None, cited, i))
                    elif g[27] and disjoint(g[27:32]):
                        i += 1
                        step = _new(ExtendStep, (label, g[27], g[28], g[29:31], g[31], i))
                    elif g[32] and disjoint(g[32:36]):
                        i += 1
                        step = _new(CasesStep, (label, g[32:34], g[34:36], (), i))
                    if step:
                        labels.add(label)
            elif not split and (m := _WORDS_RE.fullmatch(text)) and m[2] and not m[1] and steps:
                if refs := cite(m[2]):  # `qed` after a step
                    self.row = i + 1
                    return Proof(tuple(steps), refs, i + 1)
            if step is None and not refs:  # the token path reads this row
                self.row = i
                self.skip_nl()
                if self.tok and self.tok != ("close" if split else "qed"):
                    step = self.parse_step(labels)
                elif not split:
                    if not steps:
                        raise self.fail("expected at least one proof step", ("step",))
                    line = self.lines[self.pos]
                    self.expect("qed")
                    return Proof(tuple(steps), self.parse_from(), line)
                else:
                    self.expect("close")
                    if self.tok not in ("goal", "absurd"):
                        raise self.fail("expected close kind", ("goal", "absurd"))
                    close = self.advance()
                    refs = self.parse_from()
                i = self.row
            if refs:  # a `close` row ends the current branch
                head, branches, outer, at = split
                kind = _KINDS[len(branches)]
                branches.append(_new(CaseBranch, (kind, tuple(steps), close, refs, at)))
                if len(branches) < 3:
                    split[3] = 0  # the next `case` row is due
                    continue
                splits.pop()
                steps = outer
                step = _new(CasesStep, (*head[:3], tuple(branches), head[4]))
            elif type(step) is CasesStep:  # a header: its branches follow
                splits.append([step, [], steps, 0])
                if len(splits) > _MAX_CASE_DEPTH:
                    self.row = i
                    self.skip_nl()
                    raise self.error("case nesting too deep")
                continue
            steps.append(step)

    def parse_step(self, labels: set) -> Step:
        """A step on the token path; a `cases` step without its branches."""
        at = self.pos
        line = self.lines[at]
        label = self.ident("step label")
        if label in labels:
            raise self.error(f"duplicate label {label}", pos=at)
        labels.add(label)
        self.expect(":")
        if self.accept("extend"):
            a, b = self.point(), self.point()
            self.expect("by")
            seg = self.parse_segterm()
            self.expect("as")
            fresh = self.point()
            self.end_line()
            return ExtendStep(label, a, b, seg, fresh, line)
        if self.accept("layoff"):
            start = self.point()
            self.expect("toward")
            toward = self.point()
            self.expect("by")
            seg = self.parse_segterm()
            self.expect("as")
            fresh = self.point()
            return LayoffStep(label, start, toward, seg, fresh, self.parse_from(), line)
        if self.accept("cases"):
            left = self.parse_segterm()
            self.expect("vs")
            right = self.parse_segterm()
            self.end_line()
            return CasesStep(label, left, right, (), line)
        if self.accept("lemma"):
            lemma = self.ident("lemma name")
            self.expect("(")
            args = self.comma_list(self.point)
            self.expect(")")
            fresh: Tuple[str, ...] = ()
            if self.accept("as"):
                fresh = self.comma_list(self.point)
            self.end_line()
            return LemmaStep(label, lemma, args, fresh, line)
        fact = self.parse_fact(allow_absurd=True)
        self.expect("by")
        rule = self.ident("rule name", allow_keyword=True)
        points, triples = self.parse_inst()
        return RuleStep(label, fact, rule, points, triples, self.parse_from(), line)

    def parse_segterm(self) -> Tuple[str, str]:
        self.expect("seg")
        return self.point(), self.point()

    def parse_fact(self, allow_absurd: bool) -> FactAst:
        if self.accept("seg"):
            a, b = self.point(), self.point()
            op = self.parse_cmp()
            self.expect("seg")
            c, d = self.point(), self.point()
            return FactAst("seg_eq" if op == "==" else "seg_lt", (a, b, c, d))
        if self.accept("ang"):
            a, v, b = self.point(), self.point(), self.point()
            op = self.parse_cmp()
            self.expect("ang")
            c, w, d = self.point(), self.point(), self.point()
            return FactAst("ang_eq" if op == "==" else "ang_lt", (a, v, b, c, w, d))
        if self.accept("between"):
            # "between A D B" reads: D lies strictly between A and B.
            return FactAst("between", (self.point(), self.point(), self.point()))
        if self.accept("noncollinear"):
            return FactAst("noncollinear", (self.point(), self.point(), self.point()))
        if allow_absurd and self.accept("absurd"):
            return FactAst("absurd", ())
        expected = ("seg", "ang", "between", "noncollinear")
        if allow_absurd:
            expected += ("absurd",)
        raise self.fail("expected a fact", expected)

    def parse_cmp(self) -> str:
        if self.tok in ("==", "<"):
            return self.advance()
        raise self.fail("expected a comparison", ("==", "<"))

    def parse_inst(self) -> Tuple[Tuple[str, ...], bool]:
        """A rule step's points, and whether they were written as two triples."""
        self.expect("[")
        if self.tok == "(":
            first = self.parse_triple()
            self.expect(",")
            second = self.parse_triple()
            self.expect("]")
            return first + second, True
        pts = self.comma_list(self.point)
        self.expect("]")
        return pts, False

    def parse_triple(self) -> Tuple[str, str, str]:
        self.expect("(")
        a = self.point()
        self.expect(",")
        b = self.point()
        self.expect(",")
        c = self.point()
        self.expect(")")
        return (a, b, c)

    def parse_from(self) -> Tuple[str, ...]:
        """`from` and the citations that end a row."""
        self.expect("from")
        refs = self.comma_list(self.parse_ref)
        self.end_line()
        return refs

    def parse_ref(self) -> str:
        if self.tok == "sym":
            raise self.error("`sym` is gone: cite the label itself", ("label",))
        return self.advance() if self.tok == "refl" else self.ident("label", allow_dots=True)


def parse(text: str) -> ScriptAst:
    """Parse proof-script text; raises ParseError with position info."""
    return _Parser(text).parse_script()


@node
class ConjectureAst(NamedTuple):
    """A named numeric claim over bare points, from a .conj file.  The
    evaluation itself lives with the model-checking code."""

    name: str
    points: Tuple[str, ...]
    line: int = 0


def parse_conjecture(text: str) -> ConjectureAst:
    p = _Parser(text)
    p.skip_nl()
    line = p.lines[p.pos]
    p.expect("conjecture")
    name = p.ident("conjecture name")
    p.end_line()
    points = p.parse_points("points")
    p.skip_nl()
    if p.tok:
        raise p.fail("expected end of file", ("end of file",))
    return ConjectureAst(name, points, line=line)


# ---------------------------------------------------------------------------
# Printer


def _fmt_fact(fact: FactAst) -> str:
    p = fact.points
    if fact.kind == "seg_eq":
        return f"seg {p[0]} {p[1]} == seg {p[2]} {p[3]}"
    if fact.kind == "seg_lt":
        return f"seg {p[0]} {p[1]} < seg {p[2]} {p[3]}"
    if fact.kind == "ang_eq":
        return f"ang {p[0]} {p[1]} {p[2]} == ang {p[3]} {p[4]} {p[5]}"
    if fact.kind == "ang_lt":
        return f"ang {p[0]} {p[1]} {p[2]} < ang {p[3]} {p[4]} {p[5]}"
    if fact.kind == "between":
        return f"between {p[0]} {p[1]} {p[2]}"
    if fact.kind == "noncollinear":
        return f"noncollinear {p[0]} {p[1]} {p[2]}"
    return "absurd"  # absurd, the one kind left


def _fmt_inst(step: RuleStep) -> str:
    p = step.points
    if step.triples:
        return f"[({p[0]},{p[1]},{p[2]}),({p[3]},{p[4]},{p[5]})]"
    return "[" + ",".join(p) + "]"


def _fmt_step(step: Step, indent: str, out: List[str]) -> None:
    if isinstance(step, RuleStep):
        out.append(
            f"{indent}{step.label}: {_fmt_fact(step.fact)} by {step.rule_id}"
            f"{_fmt_inst(step)} from {', '.join(step.refs)}"
        )
    elif isinstance(step, ExtendStep):
        out.append(
            f"{indent}{step.label}: extend {step.a} {step.b} by "
            f"seg {' '.join(step.seg)} as {step.fresh}"
        )
    elif isinstance(step, LayoffStep):
        out.append(
            f"{indent}{step.label}: layoff {step.start} toward {step.toward} by "
            f"seg {' '.join(step.seg)} as {step.fresh} from {', '.join(step.refs)}"
        )
    elif isinstance(step, LemmaStep):
        text = f"{indent}{step.label}: lemma {step.lemma}({','.join(step.args)})"
        if step.fresh:
            text += " as " + ", ".join(step.fresh)
        out.append(text)
    else:  # CasesStep
        left, right = " ".join(step.left), " ".join(step.right)
        out.append(f"{indent}{step.label}: cases seg {left} vs seg {right}")
        for branch in step.branches:
            out.append(f"{indent}case {branch.kind}")
            for inner in branch.steps:
                _fmt_step(inner, indent + "  ", out)
            out.append(
                f"{indent}  close {branch.close_kind} from {', '.join(branch.close_refs)}"
            )


def format_script(ast: ScriptAst) -> str:
    """Canonical text for a script; parse(format_script(x)) == x."""
    out: List[str] = []
    for item in ast.items:
        if out:
            out.append("")
        if isinstance(item, DeclareAst):
            out.append(f"declare {item.name}")
            out.append(f"  tags: {', '.join(item.tags)}")
            if item.uses:
                out.append(f"  uses {', '.join(item.uses)}")
            continue
        out.append(f"theorem {item.name}")
        out.append(f"  tags: {', '.join(item.tags)}")
        out.append(f"  points {' '.join(item.points)}")
        if item.introduces:
            out.append(f"  introduces {' '.join(item.introduces)}")
        for a in item.assumes:
            out.append(f"  assume {a.label}: {_fmt_fact(a.fact)}")
        for s in item.shows:
            out.append(f"  show {_fmt_fact(s)}")
        if item.uses:
            out.append(f"  uses {', '.join(item.uses)}")
        if item.proof is not None:
            out.append("  proof")
            for step in item.proof.steps:
                _fmt_step(step, "    ", out)
            out.append(f"  qed from {', '.join(item.proof.qed_refs)}")
    return "\n".join(out) + ("\n" if out else "")
