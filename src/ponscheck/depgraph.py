"""Dependency bookkeeping for theorems, lemmas, rules, and postulates.

Checked proofs contribute edges to the rules and lemmas they invoked;
stated-only blocks contribute their declared `uses`.  On top of the
graph sit three questions: which axioms does a result ultimately rest
on, does its justification loop back on itself, and does it survive
outside euclidean geometry.
"""

from __future__ import annotations

import re
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .elaborate import ElaboratedBlock
from .kernel import CheckReport, node
from .rules import RULES

NEUTRAL = "NEUTRAL"
EUCLIDEAN_ONLY = "EUCLIDEAN_ONLY"
CYCLIC = "CYCLIC"


class DepGraphError(Exception):
    pass


class DuplicateNode(DepGraphError):
    pass


class UnknownNode(DepGraphError):
    pass


@node
class Node(NamedTuple):
    name: str
    kind: str  # "axiom" | "theorem" | "declared"
    tags: FrozenSet[str] = frozenset()  # subset of {"NEUTRAL", "EUCLIDEAN"}


class Graph:
    """Directed graph, edges pointing from a result to what it uses."""

    def __init__(self) -> None:
        self.nodes: Dict[str, Node] = {}
        self._edges: Dict[str, Tuple[str, ...]] = {}
        self._placeholders: Set[str] = set()
        self._cycles: Optional[Tuple[Tuple[str, ...], ...]] = None  # found on first use

    def register(
        self,
        name: str,
        kind: str,
        tags: Iterable[str] = (),
        uses: Sequence[str] = (),
    ) -> "Graph":
        if kind not in ("axiom", "theorem", "declared"):
            raise ValueError(f"bad node kind {kind!r}")
        node = Node(name, kind, frozenset(t.upper() for t in tags))
        edges = tuple(sorted(dict.fromkeys(uses)))
        if kind == "axiom" and edges:
            raise ValueError(f"axiom {name} cannot have uses edges")
        if name in self.nodes and name not in self._placeholders:
            if self.nodes[name] == node and self._edges[name] == edges:
                return self  # same registration, nothing to do
            raise DuplicateNode(f"conflicting registration for {name}")
        self._cycles = None
        self.nodes[name] = node
        self._edges[name] = edges
        self._placeholders.discard(name)
        for target in edges:
            if target not in self.nodes:
                self.nodes[target] = Node(target, "declared")
                self._edges[target] = ()
                self._placeholders.add(target)
        return self

    def edges_from(self, name: str) -> Tuple[str, ...]:
        self._require(name)
        return self._edges[name]

    def all_edges(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (src, dst) for src in sorted(self._edges) for dst in self._edges[src]
        )

    def _require(self, name: str) -> Node:
        if name not in self.nodes:
            raise UnknownNode(name)
        return self.nodes[name]

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
        return list(self._find_cycles())

    def _find_cycles(self) -> Tuple[Tuple[str, ...], ...]:
        """The cycles, computed once per graph state."""
        if self._cycles is not None:
            return self._cycles
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
        self._cycles = tuple(sorted(cycles, key=lambda c: c[0]))
        return self._cycles

    def cyclic_nodes(self) -> FrozenSet[str]:
        return frozenset(n for cyc in self._find_cycles() for n in cyc)

    def axiom_basis(self, name: str) -> Tuple[str, ...]:
        self._require(name)
        return tuple(
            sorted(
                n for n in self._reachable(name) if self.nodes[n].kind == "axiom"
            )
        )

    def classify(self, name: str) -> str:
        self._require(name)
        reach = self._reachable(name)
        if reach & self.cyclic_nodes():
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
    """Assemble the graph for a batch of blocks.  `reports` supplies the
    precise dependencies (rules fired, lemmas invoked) of every checked
    proof; stated-only blocks fall back to their written uses list.  A
    declare with no uses is taken as a postulate."""
    reports = reports or {}
    graph = Graph()
    names = {block.name for block in blocks}
    for block in blocks:
        uses = list(block.uses)
        report = reports.get(block.name)
        if report is not None:
            uses.extend(report.uses)
            kind = "theorem"
        elif block.statement is not None or uses:
            kind = "declared"
        else:
            kind = "axiom"
        graph.register(block.name, kind, block.tags, tuple(dict.fromkeys(uses)))
    # every used proof rule that is not itself a block is a neutral postulate
    for rule_id in sorted(RULES):
        if rule_id in graph.nodes and rule_id not in names:
            graph.register(rule_id, "axiom", (NEUTRAL,))
    return graph


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
    cyclic = graph.cyclic_nodes()
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
