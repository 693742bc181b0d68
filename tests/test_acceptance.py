"""End-to-end acceptance checks. Each test prints one PASS/FAIL line on
the real terminal (bypassing capture) so a full run reads as a scorecard."""

import itertools
import math
import random
import re
import time
from pathlib import Path

import pytest

import ponscheck.corpus
from oracles import tangent_angle
from ponscheck.cli import main as cli_main
from ponscheck.corpus import PROOF_FILENAMES, PROVED_NAMES, load_text
from ponscheck.depgraph import EUCLIDEAN_ONLY, NEUTRAL, graph_from_blocks
from ponscheck.elaborate import collect_statements, elaborate_script
from ponscheck.geometry import EUCLIDEAN, MODELS, POINCARE, SPHERE
from ponscheck.kernel import check_proof
from ponscheck.models import (
    angle_at,
    check_rule_soundness,
    model_check,
    model_check_conjecture,
)
from ponscheck.rules import RULE_IDS
from ponscheck.script import ScriptAst, parse
from test_corpus import _citation_mutants, _deletion_mutants
from test_depgraph import _graph_of, _oracle_cycles

FIVE_CORE = (
    "pappus_pons",
    "pappus_converse",
    "euclid_i5",
    "euclid_i5_converse",
    "euclid_i6",
)

ORACLE_TOL = {"euclidean": 1e-9, "poincare": 1e-7, "sphere": 1e-7}


def _verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[acceptance {num}] {name}: {tag}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    asts = [parse(load_text(fn)) for fn in PROOF_FILENAMES]
    blocks = [b for ast in asts for b in elaborate_script(ast)]
    registry = collect_statements(blocks)
    reports = {
        b.name: check_proof(b.statement, b.proof, registry)
        for b in blocks
        if b.proof is not None
    }
    return blocks, registry, reports


def test_acceptance_1_corpus_soundness(capsys):
    corpus_dir = Path(ponscheck.corpus.__file__).parent
    paths = [str(corpus_dir / f"{name}.proof") for name in FIVE_CORE]
    start = time.perf_counter()
    code = cli_main(["check", "--strict-degeneracy", *paths])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = (
        code == 0
        and all(f"{name}: ok" in out for name in FIVE_CORE)
        and elapsed < 1.0
    )
    _verdict(
        capsys, 1, "core proofs check strictly", ok, f"5 proofs in {elapsed:.2f}s"
    )


def test_acceptance_2_mutation_sensitivity(corpus, capsys):
    blocks, registry, _ = corpus
    total = survivors = 0
    for b in blocks:
        if b.name not in PROVED_NAMES or b.proof is None:
            continue
        for mutant in _deletion_mutants(b.proof) + _citation_mutants(b.proof):
            total += 1
            if check_proof(b.statement, mutant, registry).status != "failed":
                survivors += 1
    ok = total >= 25 and survivors == 0
    _verdict(
        capsys,
        2,
        "damaged proofs all rejected",
        ok,
        f"{total} mutants, {total - survivors} killed",
    )


def test_acceptance_3_circularity_and_scope(corpus, capsys):
    blocks, _, reports = corpus
    graph = graph_from_blocks(blocks, reports)
    cycles = graph.detect_cycles()
    ok = (
        cycles
        == [
            ("bisector_foot", "bisector_pons", "euclid_i7", "euclid_i8", "euclid_i9"),
            ("inscribed_angle_theorem", "pons_via_inscribed"),
        ]
        and graph.classify("euclid_i5") == NEUTRAL
        and graph.classify("pons_via_area") == EUCLIDEAN_ONLY
    )
    _verdict(capsys, 3, "known cycles and scopes found", ok, f"{len(cycles)} cycles")


def test_acceptance_4_validity_in_all_models(corpus, capsys):
    _, registry, _ = corpus
    start = time.perf_counter()
    runs = []
    for name in ("pappus_pons", "euclid_i5_converse"):
        for model in MODELS.values():
            runs.append(model_check(model, registry[name], trials=1000, seed=0))
    elapsed = time.perf_counter() - start
    ok = (
        all(r.trials_run == 1000 and r.failures == 0 for r in runs)
        and elapsed < 10.0
    )
    _verdict(
        capsys,
        4,
        "statement and converse hold everywhere",
        ok,
        f"6000 trials in {elapsed:.2f}s",
    )


def _counterexample_sum(report):
    if report.first_counterexample is None:
        return None
    m = re.search(r"angle sum ([-+0-9.e]+)", report.first_counterexample.fact)
    return float(m.group(1)) if m else None


def test_acceptance_5_curved_models_diverge(capsys):
    pts = ("A", "B", "C")
    flat = model_check_conjecture(EUCLIDEAN, "angle_sum_pi", pts, trials=1000)
    thin = model_check_conjecture(POINCARE, "angle_sum_pi", pts, trials=100)
    fat = model_check_conjecture(SPHERE, "angle_sum_pi", pts, trials=100)
    thin_sum = _counterexample_sum(thin)
    fat_sum = _counterexample_sum(fat)
    ok = (
        flat.trials_run == 1000
        and flat.failures == 0
        and thin.failures > 0
        and thin_sum is not None
        and thin_sum < math.pi
        and fat.failures > 0
        and fat_sum is not None
        and fat_sum > math.pi
    )
    _verdict(
        capsys,
        5,
        "angle sum splits the models",
        ok,
        f"flat 0/1000, disk sum {thin_sum:.3f} < pi, sphere sum {fat_sum:.3f} > pi"
        if thin_sum and fat_sum
        else "missing counterexample",
    )


def test_acceptance_6_rule_soundness_sweep(capsys):
    start = time.perf_counter()
    bad = []
    instantiations = 0
    for rule_id in RULE_IDS:
        vacuous = rule_id.startswith("ABSURD")
        for model in MODELS.values():
            rep = check_rule_soundness(model, rule_id, trials=1000, seed=11)
            instantiations += rep.trials_run
            if rep.failures != 0:
                bad.append((rule_id, model.name, "failures"))
            if not vacuous and rep.trials_run != 1000:
                bad.append((rule_id, model.name, "undersampled"))
            if vacuous and rep.trials_run != 0:
                bad.append((rule_id, model.name, "satisfiable-absurd"))
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        6,
        "every rule numerically sound",
        not bad,
        f"{instantiations} instantiations in {elapsed:.1f}s" if not bad else repr(bad),
    )


def test_acceptance_7_oracle_equivalence(capsys):
    mismatches = 0
    graphs = 0
    # exhaustive up to 3 nodes with self-loops, and all loop-free 4-node graphs
    for n in range(1, 4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            graphs += 1
            if _graph_of(n, edges).detect_cycles() != _oracle_cycles(n, edges):
                mismatches += 1
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    for bits in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
        graphs += 1
        if _graph_of(4, edges).detect_cycles() != _oracle_cycles(4, edges):
            mismatches += 1
    rng = random.Random(814)
    for _ in range(600):
        n = rng.randint(5, 8)
        edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.22]
        graphs += 1
        if _graph_of(n, edges).detect_cycles() != _oracle_cycles(n, edges):
            mismatches += 1

    worst = {name: 0.0 for name in MODELS}
    for model in MODELS.values():
        rng = random.Random(f"acceptance:{model.name}")
        checked = 0
        while checked < 1000:
            a = model.random_point(rng)
            v = model.random_point(rng)
            b = model.random_point(rng)
            if min(model.dist(v, a), model.dist(v, b), model.dist(a, b)) < 1e-2:
                continue
            dev = abs(angle_at(model, a, v, b) - tangent_angle(model, a, v, b))
            worst[model.name] = max(worst[model.name], dev)
            checked += 1
    angles_ok = all(worst[name] <= ORACLE_TOL[name] for name in worst)
    ok = mismatches == 0 and angles_ok
    _verdict(
        capsys,
        7,
        "independent oracles agree",
        ok,
        f"{graphs} graphs, worst angle dev "
        + ", ".join(f"{n} {worst[n]:.1e}" for n in sorted(worst)),
    )


def test_acceptance_8_parser_never_crashes(capsys):
    rng = random.Random(5)
    tokens = [
        "theorem", "declare", "tags:", "points", "assume", "show", "uses",
        "proof", "qed", "from", "by", "as", "extend", "layoff", "toward",
        "cases", "vs", "case", "close", "goal", "absurd", "seg", "ang",
        "==", "<", "noncollinear", "between", "refl", "sym", "A", "B", "C",
        "h1:", "s1:", "lt:", "eq:", "gt:", "[(A,B,C),(A,C,B)]", ",", "\n",
        "  ", "neutral", "euclidean",
    ]
    crashes = 0
    total = 100_000
    for k in range(total):
        if k % 5 < 3:
            raw = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 80)))
            text = raw.decode("latin-1")
        else:
            text = " ".join(
                rng.choice(tokens) for _ in range(rng.randrange(0, 14))
            )
        try:
            result = parse(text)
            if not isinstance(result, ScriptAst):
                crashes += 1
        except SyntaxError:
            pass
        except Exception:
            crashes += 1
    _verdict(
        capsys,
        8,
        "parser total on random input",
        crashes == 0,
        f"{total} inputs, {crashes} crashes",
    )
