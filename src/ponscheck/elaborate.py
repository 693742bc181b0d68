"""Turn parsed scripts into kernel statements and checkable blocks.

The elaborator builds each theorem's statement from its written facts and
pairs it with the proof the parser built.  It walks no proof: the kernel
alone resolves the names a proof uses, so a name error fails only its
own block.  A statement that cannot be built (a degenerate fact) or that
names a point out of scope (kernel.check_statement) becomes its block's
error, so it too fails only its own block.  Block names are unique
across the inputs; cli._rows checks that before elaborating.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from . import script as S
from .kernel import Proof, TheoremStatement, check_statement
from .terms import written_fact


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


def make_statement(block: S.TheoremAst) -> TheoremStatement:
    """The statement a theorem block writes.  Raises ValueError when a
    fact is degenerate or names a point out of scope."""
    statement = TheoremStatement(
        name=block.name,
        tags=frozenset(block.tags),
        points=tuple(block.points),
        hypotheses=tuple((a.label, written_fact(*a.fact)) for a in block.assumes),
        conclusions=tuple(written_fact(*f) for f in block.shows),
        introduced=tuple(block.introduces),
        uses=tuple(block.uses),
    )
    check_statement(statement)
    return statement


def collect_statements(ast: S.ScriptAst) -> Dict[str, TheoremStatement]:
    """First pass: every good theorem statement, keyed by name.  Used as
    the lemma registry before any proof is checked."""
    return {b.name: b.statement for b in elaborate_script(ast) if b.statement is not None}


def elaborate_script(
    ast: S.ScriptAst,
    registry: Optional[Mapping[str, TheoremStatement]] = None,
) -> List[ElaboratedBlock]:
    """Second pass: statement and proof for every block.  `registry` (from
    collect_statements over all input files) supplies the statements built
    there; any other is built here."""
    blocks: List[ElaboratedBlock] = []
    for item in ast.items:
        statement = proof = None
        error = ""
        if isinstance(item, S.TheoremAst):
            proof = item.proof
            statement = (registry or {}).get(item.name)
            if statement is None:
                try:
                    statement = make_statement(item)
                except ValueError as exc:
                    error = str(exc)
        blocks.append(
            ElaboratedBlock(item.name, item.tags, item.uses, statement, proof, item.line, error)
        )
    return blocks
