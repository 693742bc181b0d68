"""Graph layer: cycle detection against a brute-force oracle, the
classification lattice, and DOT output stability."""

import itertools
import random
from typing import Dict, List, Sequence, Set, Tuple

import pytest

from ponscheck.depgraph import (
    CYCLIC,
    EUCLIDEAN_ONLY,
    NEUTRAL,
    DuplicateNode,
    Graph,
    UnknownNode,
    emit_dot,
    graph_from_blocks,
)
from ponscheck.elaborate import ElaboratedBlock


def _graph_of(n: int, edges: Sequence[Tuple[int, int]]) -> Graph:
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for src, dst in edges:
        adj[src].append(dst)
    g = Graph()
    for i in range(n):
        g.register(f"n{i}", "theorem", (), tuple(f"n{j}" for j in adj[i]))
    return g


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


def test_register_is_idempotent_and_guards_conflicts():
    g = Graph()
    g.register("thm", "theorem", ("neutral",), ("lemma",))
    g.register("thm", "theorem", ("neutral",), ("lemma",))  # identical: fine
    with pytest.raises(DuplicateNode):
        g.register("thm", "theorem", ("neutral",), ("lemma", "other"))


def test_placeholder_upgrades_to_real_node():
    g = Graph()
    g.register("thm", "theorem", (), ("helper",))
    assert g.nodes["helper"].kind == "declared"
    g.register("helper", "theorem", ("neutral",), ())
    assert g.nodes["helper"].kind == "theorem"
    assert g.edges_from("thm") == ("helper",)


def test_axioms_cannot_have_uses():
    with pytest.raises(ValueError):
        Graph().register("ax", "axiom", (), ("anything",))
    with pytest.raises(ValueError):
        Graph().register("x", "banana")


def test_unknown_node_errors():
    g = Graph()
    with pytest.raises(UnknownNode):
        g.edges_from("ghost")
    with pytest.raises(UnknownNode):
        g.classify("ghost")
    with pytest.raises(UnknownNode):
        g.axiom_basis("ghost")


def _lattice_graph() -> Graph:
    g = Graph()
    g.register("ax_n", "axiom", ("neutral",))
    g.register("ax_e", "axiom", ("euclidean",))
    g.register("plain", "theorem", (), ("ax_n",))
    g.register("flat", "theorem", (), ("ax_e", "ax_n"))
    g.register("loop_a", "theorem", (), ("loop_b", "ax_e"))
    g.register("loop_b", "theorem", (), ("loop_a",))
    g.register("onlooker", "theorem", (), ("loop_a",))
    return g


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
    g = Graph()
    g.register("ouro", "theorem", (), ("ouro",))
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
    g2 = Graph()
    g2.register("onlooker", "theorem", (), ("loop_a",))
    g2.register("loop_b", "theorem", (), ("loop_a",))
    g2.register("loop_a", "theorem", (), ("loop_b", "ax_e"))
    g2.register("flat", "theorem", (), ("ax_e", "ax_n"))
    g2.register("plain", "theorem", (), ("ax_n",))
    g2.register("ax_e", "axiom", ("euclidean",))
    g2.register("ax_n", "axiom", ("neutral",))
    assert emit_dot(g1) == emit_dot(g2)
    assert emit_dot(g1).startswith("digraph deps {")
    assert "color=red" in emit_dot(g1)
    assert "fillcolor=lightyellow" in emit_dot(g1)


def test_dot_empty_graph():
    assert emit_dot(Graph()) == "digraph deps { }"


def test_dot_quotes_awkward_names():
    g = Graph()
    g.register("has space", "theorem", (), ())
    assert '"has space"' in emit_dot(g)


def test_cycles_found_once_per_graph_state(monkeypatch):
    g = Graph()
    g.register("a", "theorem", (), ("b",))  # b is a placeholder so far
    passes = []
    original = Graph._find_cycles

    def counted(self):
        passes.append(self._cycles is None)
        return original(self)

    monkeypatch.setattr(Graph, "_find_cycles", counted)
    assert [g.classify(n) for n in ("a", "b")] == [NEUTRAL, NEUTRAL]
    assert g.detect_cycles() == []
    assert passes.count(True) == 1
    # registering b closes a loop, so the stored answer must go
    g.register("b", "theorem", (), ("a",))
    assert g.detect_cycles() == [("a", "b")]
    assert g.classify("a") == CYCLIC
    assert passes.count(True) == 2
