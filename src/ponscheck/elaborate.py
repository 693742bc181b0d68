"""Turn parsed scripts into kernel statements and proofs.

The elaborator is purely static: it resolves names (labels, points,
rules, lemmas), enforces visibility (a label defined inside one case
branch is invisible in the others and after the split), and turns rule
steps into the kernel's; the parser emits kernel steps for every other
step kind.  All semantic checking is left to the kernel.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from . import script as S
from .kernel import (
    CaseBranch,
    CasesStep,
    ExtendStep,
    LayoffStep,
    LemmaStep,
    Proof,
    Ref,
    RuleStep,
    Step,
    TheoremStatement,
)
from .rules import RULES
from .terms import (
    ABSURD,
    Fact,
    PointId,
    Trail,
    ang_eq,
    ang_lt,
    angle,
    between,
    non_collinear,
    seg_eq,
    seg_lt,
    segment,
)


class ElaborationError(Exception):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class UnresolvedLabel(ElaborationError):
    pass


class UnknownRule(ElaborationError):
    pass


class UnknownLemma(ElaborationError):
    pass


class UnknownPoint(ElaborationError):
    pass


class ElaboratedBlock(NamedTuple):  # equal only with the same line, so no node
    """One script block, ready for checking and dependency analysis.

    `statement` is None for bare `declare` blocks; `proof` is None for
    statements given without one (both act as stubs in the graph).
    """

    name: str
    tags: Tuple[str, ...]
    uses: Tuple[str, ...]
    statement: Optional[TheoremStatement]
    proof: Optional[Proof]
    line: int = 0


def _convert_fact(fa: S.FactAst, known_points: Set[str], line: int) -> Fact:
    def pt(name: str) -> PointId:
        if name not in known_points:
            raise UnknownPoint(f"unknown point {name}", line)
        return name

    p = fa.points
    try:
        if fa.kind == "seg_eq":
            return seg_eq(segment(pt(p[0]), pt(p[1])), segment(pt(p[2]), pt(p[3])))
        if fa.kind == "seg_lt":
            return seg_lt(segment(pt(p[0]), pt(p[1])), segment(pt(p[2]), pt(p[3])))
        if fa.kind == "ang_eq":
            return ang_eq(angle(pt(p[0]), pt(p[1]), pt(p[2])), angle(pt(p[3]), pt(p[4]), pt(p[5])))
        if fa.kind == "ang_lt":
            return ang_lt(angle(pt(p[0]), pt(p[1]), pt(p[2])), angle(pt(p[3]), pt(p[4]), pt(p[5])))
        if fa.kind == "between":
            # written "between X Y Z": Y is the point in the middle
            return between(pt(p[1]), pt(p[0]), pt(p[2]))
        if fa.kind == "noncollinear":
            return non_collinear(pt(p[0]), pt(p[1]), pt(p[2]))
        return ABSURD  # absurd, the one kind left
    except ValueError as exc:
        raise ElaborationError(f"degenerate fact: {exc}", line) from exc


def make_statement(block: S.TheoremAst) -> TheoremStatement:
    given = set(block.points)
    full = given | set(block.introduces)
    hypotheses = tuple(
        (a.label, _convert_fact(a.fact, given, a.line)) for a in block.assumes
    )
    conclusions = tuple(_convert_fact(f, full, block.line) for f in block.shows)
    return TheoremStatement(
        name=block.name,
        tags=frozenset(block.tags),
        points=tuple(block.points),
        hypotheses=hypotheses,
        conclusions=conclusions,
        introduced=tuple(block.introduces),
        uses=tuple(block.uses),
    )


def collect_statements(ast: S.ScriptAst) -> Dict[str, TheoremStatement]:
    """First pass: statements of every theorem block, keyed by name.
    Used as the lemma registry before any proof is checked."""
    out: Dict[str, TheoremStatement] = {}
    for item in ast.items:
        if isinstance(item, S.TheoremAst):
            if item.name in out:
                raise ElaborationError(f"duplicate theorem name {item.name}", item.line)
            out[item.name] = make_statement(item)
    return out


class _Scope:
    """Visible labels and points at a position in the proof.  New names are
    logged on `trail` (names already visible are not), so those a case
    branch adds are rolled back when it ends and never leak out."""

    def __init__(self, labels: Set[str], points: Set[str]) -> None:
        self.labels = labels
        self.points = points
        self.trail = Trail()

    def add(self, names: Set[str], name: str) -> None:
        if name not in names:
            names.add(name)
            self.trail.append((set.remove, names, name))


def _check_refs(refs: Tuple[Ref, ...], scope: _Scope, line: int) -> None:
    for ref in refs:
        if ref.kind in ("label", "sym") and ref.label not in scope.labels:
            raise UnresolvedLabel(f"unresolved label {ref.label}", line)


def _known_points(names: Tuple[str, ...], scope: _Scope, line: int) -> None:
    for n in names:
        if n not in scope.points:
            raise UnknownPoint(f"unknown point {n}", line)


def _convert_steps(
    steps: Tuple[S.StepAst, ...],
    scope: _Scope,
    registry: Optional[Mapping[str, TheoremStatement]],
) -> Tuple[Step, ...]:
    out: List[Step] = []
    for st in steps:
        if isinstance(st, S.RuleStepAst):
            if st.rule not in RULES:
                raise UnknownRule(f"unknown rule {st.rule}", st.line)
            _known_points(st.inst.points, scope, st.line)
            fact = _convert_fact(st.fact, scope.points, st.line)
            _check_refs(st.refs, scope, st.line)
            out.append(RuleStep(st.label, fact, st.rule, st.inst.points, st.refs, line=st.line))
        elif isinstance(st, ExtendStep):
            _known_points((st.a, st.b, *st.seg), scope, st.line)
            out.append(st)
            scope.add(scope.points, st.fresh)
        elif isinstance(st, LayoffStep):
            _known_points((st.start, st.toward, *st.seg), scope, st.line)
            _check_refs(st.refs, scope, st.line)
            out.append(st)
            scope.add(scope.points, st.fresh)
        elif isinstance(st, LemmaStep):
            if registry is not None and st.lemma not in registry:
                raise UnknownLemma(f"unknown lemma {st.lemma}", st.line)
            _known_points(st.args, scope, st.line)
            out.append(st)
            for name in st.fresh:
                scope.add(scope.points, name)
        else:  # CasesStep
            _known_points((*st.left, *st.right), scope, st.line)
            branches = []
            for br in st.branches:
                mark = len(scope.trail)
                scope.add(scope.labels, f"{st.label}.{br.kind}")
                bsteps = _convert_steps(br.steps, scope, registry)
                _check_refs(br.close_refs, scope, br.line)
                scope.trail.rollback(mark)
                branches.append(CaseBranch(br.kind, bsteps, br.close_kind, br.close_refs, br.line))
            out.append(CasesStep(st.label, st.left, st.right, tuple(branches), st.line))
        scope.add(scope.labels, st.label)
    return tuple(out)


def make_proof(block: S.TheoremAst, registry: Optional[Mapping[str, TheoremStatement]] = None) -> Optional[Proof]:
    if block.steps is None:
        return None
    scope = _Scope(
        {a.label for a in block.assumes},
        set(block.points),
    )
    steps = _convert_steps(block.steps, scope, registry)
    _check_refs(block.qed_refs, scope, block.line)
    qed_line = block.steps[-1].line if block.steps else block.line
    return Proof(steps, block.qed_refs, qed_line=qed_line)


def elaborate_script(
    ast: S.ScriptAst,
    registry: Optional[Mapping[str, TheoremStatement]] = None,
) -> List[ElaboratedBlock]:
    """Second pass: full statement + proof for every block.  `registry`
    (from collect_statements over all input files) resolves lemma names and
    supplies each block's statement, built there once; omit it to defer
    lemma resolution to the kernel."""
    blocks: List[ElaboratedBlock] = []
    for item in ast.items:
        if isinstance(item, S.DeclareAst):
            blocks.append(
                ElaboratedBlock(item.name, item.tags, item.uses, None, None, line=item.line)
            )
            continue
        statement = registry.get(item.name) if registry is not None else None
        if statement is None:
            statement = make_statement(item)
        proof = make_proof(item, registry)
        blocks.append(
            ElaboratedBlock(item.name, item.tags, item.uses, statement, proof, line=item.line)
        )
    return blocks
