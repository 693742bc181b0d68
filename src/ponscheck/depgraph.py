"""Dependency bookkeeping for theorems, lemmas, rules, and postulates.

graph_from_blocks builds the graph in one pass: checked proofs contribute
edges to the rules and lemmas they invoked, stated-only blocks their
declared `uses`.  The graph answers three questions: which axioms does a
result ultimately rest on, does its justification loop back on itself,
and does it survive outside euclidean geometry.  `Graph` settles all
three for every node in one depth-first pass when it is built.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    uses.  The graph is never changed, so one depth-first pass over it
    answers every question: Tarjan's algorithm closes each strongly
    connected component only after every component it uses, and a
    component's cycle, class and axiom basis are settled as it closes.
    `classify` and `axiom_basis` look them up."""

    def __init__(self, nodes: Dict[str, Node], edges: Dict[str, Tuple[str, ...]]) -> None:
        self.nodes = nodes
        self._edges = edges
        self._class: Dict[str, str] = {}  # a node's, once its component closes
        self._basis: Dict[str, Tuple[str, ...]] = {}
        self._cycles: List[Tuple[str, ...]] = []
        # Tarjan's algorithm.  `open_` holds the reached nodes whose component is
        # open, in the order they were reached, so a node's place on it serves
        # as its index: `low` is the lowest place it reaches, and a component
        # closes at its root as the top of the stack from the root's place up.
        open_: List[str] = []
        place: Dict[str, int] = {}
        low: Dict[str, int] = {}
        for root in sorted(nodes):
            if root in place:
                continue
            place[root] = low[root] = 0  # the stack is empty between roots
            open_.append(root)
            work = [(root, iter(edges[root]))]
            while work:
                name, todo = work[-1]
                for nxt in todo:
                    if nxt not in place:
                        place[nxt] = low[nxt] = len(open_)
                        open_.append(nxt)
                        work.append((nxt, iter(edges[nxt])))
                        break
                    if nxt not in self._class:  # on the stack
                        low[name] = min(low[name], place[nxt])
                else:
                    work.pop()
                    if work:
                        above = work[-1][0]
                        low[above] = min(low[above], low[name])
                    if low[name] == place[name]:  # the root of its component
                        self._close(open_[place[name]:])
                        del open_[place[name]:]
        self._cycles.sort()
        self.cyclic = frozenset(n for cyc in self._cycles for n in cyc)  # their nodes

    def _close(self, comp: List[str]) -> None:
        """Record a closing component's cycle, class and axiom basis; every
        component it uses is recorded already."""
        edges, nodes = self._edges, self.nodes
        used = {dst for name in comp for dst in edges[name]}.difference(comp)
        axioms = {name for name in comp if nodes[name].kind == "axiom"}
        classes = {self._class[name] for name in used}  # then those of `comp` itself
        if len(comp) > 1 or comp[0] in edges[comp[0]]:
            self._cycles.append(tuple(sorted(comp)))
            classes.add(CYCLIC)
        if any("EUCLIDEAN" in nodes[a].tags for a in axioms):
            classes.add(EUCLIDEAN_ONLY)
        cls = next((c for c in (CYCLIC, EUCLIDEAN_ONLY) if c in classes), NEUTRAL)
        basis = tuple(sorted(axioms.union(*(self._basis[name] for name in used))))
        for name in comp:
            self._class[name] = cls
            self._basis[name] = basis

    def all_edges(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (src, dst) for src in sorted(self._edges) for dst in self._edges[src]
        )

    def detect_cycles(self) -> List[Tuple[str, ...]]:
        """Strongly connected components that are genuinely circular:
        two or more nodes, or a single node using itself.  Each cycle is
        name-sorted; cycles are sorted by first element."""
        return list(self._cycles)

    def axiom_basis(self, name: str) -> Tuple[str, ...]:
        """The sorted axioms `name` rests on, itself included."""
        return self._basis[name]

    def classify(self, name: str) -> str:
        """CYCLIC if `name` rests on a cycle, else EUCLIDEAN_ONLY if on a
        euclidean axiom, else NEUTRAL."""
        return self._class[name]


# ---------------------------------------------------------------------------
# Building the graph from elaborated scripts


def graph_from_blocks(
    blocks: Sequence[ElaboratedBlock],
    reports: Optional[Mapping[str, CheckReport]] = None,
) -> Graph:
    """The graph of uniquely named blocks.  `reports` supplies the precise
    dependencies (rules fired, lemmas invoked) of every checked proof;
    stated-only blocks fall back to their written uses list.  A declare
    with no uses is a postulate, and so is a used proof rule, which names
    no block (ValueError); any other used name is a declared result."""
    reports = reports or {}
    nodes: Dict[str, Node] = {}
    edges: Dict[str, Tuple[str, ...]] = {}
    for block in blocks:
        if block.name in RULES:  # its node would stand for the rule
            raise ValueError(f"block {block.name} takes the name of the rule {block.name}")
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
