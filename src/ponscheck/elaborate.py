"""Turn parsed scripts into kernel statements and checkable blocks.

The elaborator builds each theorem's statement from its written facts and
pairs it with the proof the parser built.  It walks no proof: the kernel
alone resolves the names a proof uses, so a name error fails only its
own block.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from . import script as S
from .kernel import FactAst, Proof, TheoremStatement
from .terms import Fact, written_fact


class ElaborationError(Exception):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


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


def _statement_fact(fa: FactAst, known_points: Set[str], line: int) -> Fact:
    for name in fa.points:
        if name not in known_points:
            raise ElaborationError(f"unknown point {name}", line)
    try:
        return written_fact(*fa)
    except ValueError as exc:
        raise ElaborationError(f"degenerate fact: {exc}", line) from exc


def make_statement(block: S.TheoremAst) -> TheoremStatement:
    given = set(block.points)
    full = given | set(block.introduces)
    hypotheses = tuple(
        (a.label, _statement_fact(a.fact, given, a.line)) for a in block.assumes
    )
    conclusions = tuple(_statement_fact(f, full, block.line) for f in block.shows)
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


def elaborate_script(
    ast: S.ScriptAst,
    registry: Optional[Mapping[str, TheoremStatement]] = None,
) -> List[ElaboratedBlock]:
    """Second pass: statement and proof for every block.  `registry` (from
    collect_statements over all input files) supplies each block's
    statement, built there once; without it, each is built here."""
    blocks: List[ElaboratedBlock] = []
    for item in ast.items:
        statement = proof = None
        if isinstance(item, S.TheoremAst):
            statement = (registry or {}).get(item.name) or make_statement(item)
            proof = item.proof
        blocks.append(ElaboratedBlock(item.name, item.tags, item.uses, statement, proof, item.line))
    return blocks
