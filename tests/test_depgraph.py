"""Graph layer: cycles, classes and axiom bases against a brute-force
reachability oracle, the classification lattice, and DOT output
stability."""

import itertools
import random
import time
from typing import Dict, List, Sequence, Set, Tuple

import pytest

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


# A node's kind and tags: a theorem, a neutral axiom or a euclidean axiom.
_KINDS = (
    ("theorem", frozenset()),
    ("axiom", frozenset({NEUTRAL})),
    ("axiom", frozenset({"EUCLIDEAN"})),
)


def _graph_of(n: int, edges: Sequence[Tuple[int, int]], kinds=None) -> Graph:
    adj: Dict[int, List[str]] = {i: [] for i in range(n)}
    for src, dst in edges:
        adj[src].append(f"n{dst}")
    kinds = kinds or [_KINDS[0]] * n
    nodes = {f"n{i}": Node(f"n{i}", *kinds[i]) for i in range(n)}
    return Graph(nodes, {f"n{i}": tuple(sorted(set(adj[i]))) for i in range(n)})


def _reach(n: int, edges: Sequence[Tuple[int, int]]) -> Dict[int, Set[int]]:
    """Every node's reach set, itself included, computed the slow obvious way."""
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
    return reach


def _oracle_cycles(n: int, edges: Sequence[Tuple[int, int]]) -> List[Tuple[str, ...]]:
    """Mutual reachability."""
    reach = _reach(n, edges)
    comps: Set[Tuple[str, ...]] = set()
    for i in range(n):
        comp = {j for j in reach[i] if i in reach[j]}
        if len(comp) > 1 or (i, i) in edges:
            comps.add(tuple(sorted(f"n{j}" for j in comp)))
    return sorted(comps, key=lambda c: c[0])


def _assert_matches_oracle(n: int, edges: Sequence[Tuple[int, int]], rng: random.Random) -> None:
    """Cycles, and with each node's kind and tag drawn from `rng`, every
    node's class and axiom basis: CYCLIC if it reaches a node on a cycle,
    else EUCLIDEAN_ONLY if it reaches a euclidean axiom; its basis is the
    sorted axioms it reaches."""
    kinds = [rng.choice(_KINDS) for _ in range(n)]
    g = _graph_of(n, edges, kinds)
    cycles = _oracle_cycles(n, edges)
    assert g.detect_cycles() == cycles, edges
    on_cycle = {int(name[1:]) for cyc in cycles for name in cyc}
    for i, reach in _reach(n, edges).items():
        if reach & on_cycle:
            want = CYCLIC
        elif any(kinds[j] == _KINDS[2] for j in reach):
            want = EUCLIDEAN_ONLY
        else:
            want = NEUTRAL
        basis = tuple(sorted(f"n{j}" for j in reach if kinds[j][0] == "axiom"))
        assert (g.classify(f"n{i}"), g.axiom_basis(f"n{i}")) == (want, basis), (edges, kinds, i)


def test_cycles_match_oracle_exhaustively_small():
    # every digraph on up to 3 nodes, self-loops included
    rng = random.Random(3)
    for n in range(1, 4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            _assert_matches_oracle(n, edges, rng)


def test_cycles_match_oracle_exhaustively_four_nodes():
    # all 4096 loop-free digraphs on 4 nodes
    rng = random.Random(4)
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    for bits in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
        _assert_matches_oracle(4, edges, rng)


def test_cycles_match_oracle_random_larger():
    rng, kinds = random.Random(20260814), random.Random(5)
    for _ in range(300):
        n = rng.randint(5, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if rng.random() < 0.25
        ]
        _assert_matches_oracle(n, edges, kinds)


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


def test_a_block_named_after_a_rule_is_refused():
    """A block may not take a proof rule's name: its node would stand for
    the rule, so a euclidean `declare SAS_ORD` would make the rule a
    euclidean axiom for every theorem citing it."""
    blocks = [
        ElaboratedBlock("SAS_ORD", ("euclidean",), (), None, None),
        ElaboratedBlock("thm", ("neutral",), ("SAS_ORD",), None, None),
    ]
    with pytest.raises(ValueError, match=r"\bSAS_ORD\b.*\brule SAS_ORD\b"):
        graph_from_blocks(blocks)
    with pytest.raises(ValueError, match="SEG_REFL"):
        graph_from_blocks(_blocks(SEG_REFL=("thm",), thm=()))


def test_cycles_found_once_per_graph_state(monkeypatch):
    """Building the graph closes each of its components once; no question
    asked of the graph afterwards closes one again."""
    closed = []
    original = Graph._close

    def counted(self, comp):
        closed.append((self, sorted(comp)))
        return original(self, comp)

    monkeypatch.setattr(Graph, "_close", counted)
    g = graph_from_blocks(_blocks(a=("b",), b=("a",), c=("a",)))
    assert closed == [(g, ["a", "b"]), (g, ["c"])]
    assert [g.classify(n) for n in ("a", "b", "c")] == [CYCLIC] * 3
    assert [g.axiom_basis(n) for n in ("a", "b", "c")] == [()] * 3
    assert g.detect_cycles() == [("a", "b")]
    assert emit_dot(g).count("color=red") == 2
    assert closed == [(g, ["a", "b"]), (g, ["c"])]


def test_deep_chain_and_long_ring_are_classified_in_one_pass():
    """A 10,000-block chain of `declare`s down to one euclidean postulate,
    and a 3,000-block ring: every block's class and axiom basis come from
    the one pass that builds the graph, so neither walks the graph again."""
    start = time.perf_counter()
    n = 10_000
    chain = graph_from_blocks(
        [ElaboratedBlock(f"c{i}", (), (f"c{i + 1}",), None, None) for i in range(n - 1)]
        + [ElaboratedBlock(f"c{n - 1}", ("euclidean",), (), None, None)]
    )
    assert chain.detect_cycles() == []
    for i in range(n):
        assert (chain.classify(f"c{i}"), chain.axiom_basis(f"c{i}")) == (
            EUCLIDEAN_ONLY, (f"c{n - 1}",)
        )
    ring = graph_from_blocks(_blocks(**{f"r{i}": (f"r{(i + 1) % 3000}",) for i in range(3000)}))
    assert ring.detect_cycles() == [tuple(sorted(ring.nodes))]
    assert all((ring.classify(r), ring.axiom_basis(r)) == (CYCLIC, ()) for r in ring.nodes)
    assert time.perf_counter() - start < 5.0
