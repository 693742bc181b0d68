"""Turn parsed scripts into kernel statements and checkable blocks.

The elaborator builds each theorem's statement from its written facts and
pairs it with the proof the parser built.  It walks no proof: the kernel
alone resolves the names a proof uses, so a name error fails only its
own block.  A statement that cannot be built (a degenerate fact, or one
that names a point out of scope) becomes its block's error, which names
the fact's line, so it too fails only its own block.  Block names are unique
across the inputs; cli._rows checks that before elaborating.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import script as S
from .kernel import FactAst, Proof, TheoremStatement
from .terms import Fact, written_fact


class ElaboratedBlock(NamedTuple):  # equal only with the same line, so no node
    """One script block, ready for checking and dependency analysis.

    `statement` is None for bare `declare` blocks and for a theorem whose
    statement is bad, which `error` then explains; `proof` is None for
    statements given without one (both act as stubs in the graph).
    """

    name: str
    tags: Tuple[str, ...]
    uses: Tuple[str, ...]
    statement: Optional[TheoremStatement]
    proof: Optional[Proof]
    line: int = 0
    error: str = ""


def _fact(name: str, where: str, line: int, fact: FactAst, scope: Tuple[str, ...]) -> Fact:
    try:
        unknown = [n for n in fact.points if n not in scope]
        if unknown:
            raise ValueError(f"mentions undeclared point {unknown[0]}")
        return written_fact(*fact)
    except ValueError as exc:
        raise ValueError(f"{name}: {where} (line {line}): {exc}") from None


def make_statement(block: S.TheoremAst) -> TheoremStatement:
    """The statement a theorem block writes.  Raises ValueError, naming the
    hypothesis and its line (a `show`, the block's line), when a fact names
    a point out of scope (checked by _fact) or is degenerate."""
    name, given = block.name, tuple(block.points)
    scope = given + tuple(block.introduces)
    return TheoremStatement(
        name=name,
        tags=frozenset(block.tags),
        points=given,
        hypotheses=tuple((a.label, _fact(name, f"hypothesis {a.label}", a.line, a.fact, given))
                         for a in block.assumes),
        conclusions=tuple(_fact(name, "show", block.line, f, scope) for f in block.shows),
        introduced=tuple(block.introduces),
        uses=tuple(block.uses),
    )


def elaborate_script(ast: S.ScriptAst) -> List[ElaboratedBlock]:
    """Statement and proof for every block, each statement built once."""
    blocks: List[ElaboratedBlock] = []
    for item in ast.items:
        statement = proof = None
        error = ""
        if isinstance(item, S.TheoremAst):
            proof = item.proof
            try:
                statement = make_statement(item)
            except ValueError as exc:
                error = str(exc)
        blocks.append(
            ElaboratedBlock(item.name, item.tags, item.uses, statement, proof, item.line, error)
        )
    return blocks


def collect_statements(blocks: Iterable[ElaboratedBlock]) -> Dict[str, Optional[TheoremStatement]]:
    """The lemma registry: every theorem's statement, keyed by name, None
    for a bad one."""
    return {b.name: b.statement for b in blocks if b.statement or b.error}
