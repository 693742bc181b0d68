"""Graph layer: cycle detection against a brute-force oracle, the
classification lattice, and DOT output stability."""

import itertools
import random
from typing import Dict, List, Sequence, Set, Tuple

from ponscheck.depgraph import (
    CYCLIC,
    EUCLIDEAN_ONLY,
    NEUTRAL,
    Graph,
    Node,
    emit_dot,
    graph_from_blocks,
)
from ponscheck.elaborate import ElaboratedBlock


def _blocks(**uses: Tuple[str, ...]) -> List[ElaboratedBlock]:
    """Stated-only blocks: each keyword names a block and what it uses."""
    return [ElaboratedBlock(name, (), targets, None, None) for name, targets in uses.items()]


def _graph_of(n: int, edges: Sequence[Tuple[int, int]]) -> Graph:
    adj: Dict[int, List[str]] = {i: [] for i in range(n)}
    for src, dst in edges:
        adj[src].append(f"n{dst}")
    nodes = {f"n{i}": Node(f"n{i}", "theorem") for i in range(n)}
    return Graph(nodes, {f"n{i}": tuple(sorted(set(adj[i]))) for i in range(n)})


def _oracle_cycles(n: int, edges: Sequence[Tuple[int, int]]) -> List[Tuple[str, ...]]:
    """Mutual reachability, computed the slow obvious way."""
    adj: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for src, dst in edges:
        adj[src].add(dst)
    reach: Dict[int, Set[int]] = {}
    for i in range(n):
        seen = {i}
        frontier = [i]
        while frontier:
            nxt = frontier.pop()
            for j in adj[nxt]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        reach[i] = seen
    comps: Set[Tuple[str, ...]] = set()
    for i in range(n):
        comp = {j for j in reach[i] if i in reach[j]}
        if len(comp) > 1 or i in adj[i]:
            comps.add(tuple(sorted(f"n{j}" for j in comp)))
    return sorted(comps, key=lambda c: c[0])


def test_cycles_match_oracle_exhaustively_small():
    # every digraph on up to 3 nodes, self-loops included
    for n in range(1, 4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            g = _graph_of(n, edges)
            assert g.detect_cycles() == _oracle_cycles(n, edges), edges


def test_cycles_match_oracle_exhaustively_four_nodes():
    # all 4096 loop-free digraphs on 4 nodes
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    for bits in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
        g = _graph_of(4, edges)
        assert g.detect_cycles() == _oracle_cycles(4, edges), edges


def test_cycles_match_oracle_random_larger():
    rng = random.Random(20260814)
    for _ in range(300):
        n = rng.randint(5, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.25
        ]
        g = _graph_of(n, edges)
        assert g.detect_cycles() == _oracle_cycles(n, edges), (n, edges)


LATTICE = dict(
    ax_n=(),
    ax_e=(),
    plain=("ax_n",),
    flat=("ax_e", "ax_n"),
    loop_a=("loop_b", "ax_e"),
    loop_b=("loop_a",),
    onlooker=("loop_a",),
)


def _lattice_graph(order=tuple(LATTICE)) -> Graph:
    """Two postulates (`declare` with no uses), one neutral and one
    euclidean, and stated results above them, built in `order`."""
    tags = {"ax_n": ("neutral",), "ax_e": ("euclidean",)}
    return graph_from_blocks(
        [
            ElaboratedBlock(name, tags.get(name, ()), LATTICE[name], None, None)
            for name in order
        ]
    )


def test_classification_lattice():
    g = _lattice_graph()
    assert g.classify("plain") == NEUTRAL
    assert g.classify("flat") == EUCLIDEAN_ONLY
    # circularity trumps the euclidean axiom both inside and above the loop
    assert g.classify("loop_a") == CYCLIC
    assert g.classify("loop_b") == CYCLIC
    assert g.classify("onlooker") == CYCLIC
    assert g.classify("ax_e") == EUCLIDEAN_ONLY
    assert g.classify("ax_n") == NEUTRAL


def test_axiom_basis_is_sorted_reachable_axioms():
    g = _lattice_graph()
    assert g.axiom_basis("flat") == ("ax_e", "ax_n")
    assert g.axiom_basis("plain") == ("ax_n",)
    assert g.axiom_basis("loop_b") == ("ax_e",)
    assert g.axiom_basis("ax_n") == ("ax_n",)


def test_self_loop_is_a_cycle():
    g = graph_from_blocks(_blocks(ouro=("ouro",)))
    assert g.detect_cycles() == [("ouro",)]
    assert g.classify("ouro") == CYCLIC


def test_blocks_without_statement_or_uses_become_axioms():
    blocks = [
        ElaboratedBlock("postulate", ("euclidean",), (), None, None),
        ElaboratedBlock("wrapper", ("euclidean",), ("postulate",), None, None),
    ]
    g = graph_from_blocks(blocks)
    assert g.nodes["postulate"].kind == "axiom"
    assert g.nodes["wrapper"].kind == "declared"
    assert g.classify("wrapper") == EUCLIDEAN_ONLY


def test_dot_output_is_insertion_order_independent():
    g1 = _lattice_graph()
    g2 = _lattice_graph(tuple(reversed(LATTICE)))
    assert emit_dot(g1) == emit_dot(g2)
    assert emit_dot(g1).startswith("digraph deps {")
    assert "color=red" in emit_dot(g1)
    assert "fillcolor=lightyellow" in emit_dot(g1)


def test_dot_empty_graph():
    assert emit_dot(Graph({}, {})) == "digraph deps { }"


def test_dot_quotes_awkward_names():
    g = graph_from_blocks(_blocks(**{"has space": ()}))
    assert '"has space"' in emit_dot(g)


def test_used_names_that_are_not_blocks_become_nodes():
    g = graph_from_blocks(_blocks(thm=("SEG_REFL", "helper")))
    assert g.nodes["SEG_REFL"] == Node("SEG_REFL", "axiom", frozenset({NEUTRAL}))
    assert g.nodes["helper"] == Node("helper", "declared")
    assert g.all_edges() == (("thm", "SEG_REFL"), ("thm", "helper"))


def test_cycles_found_once_per_graph_state(monkeypatch):
    passes = []
    original = Graph._find_cycles

    def counted(self):
        passes.append(self)
        return original(self)

    monkeypatch.setattr(Graph, "_find_cycles", counted)
    g = graph_from_blocks(_blocks(a=("b",), b=("a",), c=("a",)))
    assert [g.classify(n) for n in ("a", "b", "c")] == [CYCLIC] * 3
    assert g.detect_cycles() == [("a", "b")]
    assert emit_dot(g).count("color=red") == 2
    assert passes == [g]
