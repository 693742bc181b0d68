"""Dependency bookkeeping for theorems, lemmas, rules, and postulates.

graph_from_blocks builds the graph in one pass: checked proofs contribute
edges to the rules and lemmas they invoked, stated-only blocks their
declared `uses`.  On top of the graph sit three questions: which axioms
does a result ultimately rest on, does its justification loop back on
itself, and does it survive outside euclidean geometry.
"""

from __future__ import annotations

import re
from typing import (
    Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .elaborate import ElaboratedBlock
from .kernel import CheckReport, node
from .rules import RULES

NEUTRAL = "NEUTRAL"
EUCLIDEAN_ONLY = "EUCLIDEAN_ONLY"
CYCLIC = "CYCLIC"


@node
class Node(NamedTuple):
    name: str
    kind: str  # "axiom" | "theorem" | "declared"
    tags: FrozenSet[str] = frozenset()  # subset of {"NEUTRAL", "EUCLIDEAN"}


class Graph:
    """Directed graph, edges pointing from a result to what it uses.
    `edges` maps every node's name to the sorted names of the nodes it
    uses.  The graph is never changed, so its cycles are found once."""

    def __init__(self, nodes: Dict[str, Node], edges: Dict[str, Tuple[str, ...]]) -> None:
        self.nodes = nodes
        self._edges = edges
        self._cycles = self._find_cycles()
        self.cyclic = frozenset(n for cyc in self._cycles for n in cyc)  # their nodes

    def all_edges(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (src, dst) for src in sorted(self._edges) for dst in self._edges[src]
        )

    # -- reachability and cycles

    def _reachable(self, name: str) -> Set[str]:
        seen = {name}
        stack = [name]
        while stack:
            for nxt in self._edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def detect_cycles(self) -> List[Tuple[str, ...]]:
        """Strongly connected components that are genuinely circular:
        two or more nodes, or a single node using itself.  Each cycle is
        name-sorted; cycles are sorted by first element."""
        return list(self._cycles)

    def _find_cycles(self) -> Tuple[Tuple[str, ...], ...]:
        order: List[str] = []
        seen: Set[str] = set()
        for root in sorted(self.nodes):
            if root in seen:
                continue
            # iterative post-order
            stack: List[Tuple[str, int]] = [(root, 0)]
            seen.add(root)
            while stack:
                node, idx = stack.pop()
                adj = self._edges[node]
                if idx < len(adj):
                    stack.append((node, idx + 1))
                    nxt = adj[idx]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(node)
        reverse: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for src, dsts in self._edges.items():
            for dst in dsts:
                reverse[dst].append(src)
        assigned: Set[str] = set()
        components: List[List[str]] = []
        for node in reversed(order):
            if node in assigned:
                continue
            comp = [node]
            assigned.add(node)
            stack2 = [node]
            while stack2:
                cur = stack2.pop()
                for prev in reverse[cur]:
                    if prev not in assigned:
                        assigned.add(prev)
                        comp.append(prev)
                        stack2.append(prev)
            components.append(comp)
        cycles = [
            tuple(sorted(comp))
            for comp in components
            if len(comp) > 1 or comp[0] in self._edges[comp[0]]
        ]
        return tuple(sorted(cycles, key=lambda c: c[0]))

    def axiom_basis(self, name: str) -> Tuple[str, ...]:
        return tuple(
            sorted(
                n for n in self._reachable(name) if self.nodes[n].kind == "axiom"
            )
        )

    def classify(self, name: str) -> str:
        reach = self._reachable(name)
        if reach & self.cyclic:
            return CYCLIC
        for n in reach:
            node = self.nodes[n]
            if node.kind == "axiom" and "EUCLIDEAN" in node.tags:
                return EUCLIDEAN_ONLY
        return NEUTRAL


# ---------------------------------------------------------------------------
# Building the graph from elaborated scripts


def graph_from_blocks(
    blocks: Sequence[ElaboratedBlock],
    reports: Optional[Mapping[str, CheckReport]] = None,
) -> Graph:
    """The graph of uniquely named blocks.  `reports` supplies the precise
    dependencies (rules fired, lemmas invoked) of every checked proof;
    stated-only blocks fall back to their written uses list.  A declare
    with no uses is a postulate, and so is a used proof rule that is not
    a block; any other used name is a declared result."""
    reports = reports or {}
    nodes: Dict[str, Node] = {}
    edges: Dict[str, Tuple[str, ...]] = {}
    for block in blocks:
        report = reports.get(block.name)
        uses = block.uses
        if report is not None:
            kind, uses = "theorem", uses + report.uses
        elif block.statement is not None or uses:
            kind = "declared"
        else:
            kind = "axiom"
        nodes[block.name] = Node(block.name, kind, frozenset(t.upper() for t in block.tags))
        edges[block.name] = tuple(sorted(set(uses)))
    for name in {n for uses in edges.values() for n in uses} - nodes.keys():
        if name in RULES:
            nodes[name] = Node(name, "axiom", frozenset({NEUTRAL}))
        else:
            nodes[name] = Node(name, "declared")
        edges[name] = ()
    return Graph(nodes, edges)


# ---------------------------------------------------------------------------
# DOT output

_ID_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _dot_id(name: str) -> str:
    if _ID_OK.match(name):
        return name
    return '"' + name.replace('"', '\\"') + '"'


def emit_dot(graph: Graph) -> str:
    """Deterministic DOT text: cyclic nodes drawn red, euclidean-only
    axioms boxed, plain nodes styled by kind."""
    if not graph.nodes:
        return "digraph deps { }"
    cyclic = graph.cyclic
    lines = ["digraph deps {"]
    for name in sorted(graph.nodes):
        node = graph.nodes[name]
        attrs = []
        if node.kind == "axiom":
            attrs.append("shape=box")
            if "EUCLIDEAN" in node.tags:
                attrs.append("style=filled")
                attrs.append("fillcolor=lightyellow")
        elif node.kind == "declared":
            attrs.append("shape=ellipse")
            attrs.append("style=dashed")
        else:
            attrs.append("shape=ellipse")
        if name in cyclic:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        lines.append(f"  {_dot_id(name)} [{', '.join(attrs)}];")
    for src, dst in graph.all_edges():
        lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
