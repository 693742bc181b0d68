"""Bundled corpus: golden checking results, dependency shape, and a
mutation harness showing the kernel rejects every damaged proof."""

from typing import Iterator, List, Tuple

import pytest

from ponscheck.corpus import ENTRIES, PROOF_FILENAMES, PROVED_NAMES, load_text
from ponscheck.depgraph import graph_from_blocks
from ponscheck.elaborate import collect_statements, elaborate_script
from ponscheck.kernel import (
    CaseBranch,
    CasesStep,
    LayoffStep,
    Proof,
    Ref,
    RuleStep,
    check_proof,
)
from ponscheck.script import parse

# Rules in first-citation order, as the reports record them.
GOLDEN_RULE_USES = {
    "pappus_pons": ("ANG_REFL", "SAS_ORD"),
    "euclid_i5": (
        "SEG_TRANS",
        "SEG_SUM",
        "NC_TRANSFER",
        "ARM_SUBST",
        "ANG_TRANS",
        "SAS_ORD",
        "SUPP_CONG",
    ),
    "euclid_i5_converse": ("SEG_REFL", "ASA_ORD"),
    "pappus_converse": ("SEG_REFL", "ASA_ORD"),
    "euclid_i6": (
        "ARM_SUBST",
        "ANG_TRANS",
        "SEG_REFL",
        "NC_TRANSFER",
        "SAS_ORD",
        "WHOLE_PART_ANG",
        "ABSURD_LT_EQ_ANG",
    ),
    "bisector_pons": ("SEG_REFL", "NC_TRANSFER", "SAS_ORD", "ARM_SUBST", "ANG_TRANS"),
}

EXPECTED_CYCLES = (
    ("bisector_foot", "bisector_pons", "euclid_i7", "euclid_i8", "euclid_i9"),
    ("inscribed_angle_theorem", "pons_via_inscribed"),
)


@pytest.fixture(scope="module")
def pipeline():
    asts = [parse(load_text(fn)) for fn in PROOF_FILENAMES]
    blocks = [b for ast in asts for b in elaborate_script(ast)]
    registry = collect_statements(blocks)
    reports = {
        b.name: check_proof(b.statement, b.proof, registry)
        for b in blocks
        if b.proof is not None
    }
    return blocks, registry, reports


def test_every_proved_entry_checks_ok(pipeline):
    _, _, reports = pipeline
    for name in PROVED_NAMES:
        assert reports[name].status == "ok", reports[name].error


def test_proofs_survive_strict_mode(pipeline):
    blocks, registry, _ = pipeline
    for b in blocks:
        if b.proof is None:
            continue
        rep = check_proof(b.statement, b.proof, registry, strict=True)
        assert rep.status == "ok", (b.name, rep.error)
        assert not rep.assumed, b.name


def test_golden_rule_uses(pipeline):
    _, _, reports = pipeline
    for name, rules in GOLDEN_RULE_USES.items():
        assert reports[name].rule_uses == rules, name


def test_bisector_proof_cites_the_foot_lemma(pipeline):
    _, _, reports = pipeline
    assert reports["bisector_pons"].lemma_uses == ("bisector_foot",)


def test_statuses_match_registry_expectations(pipeline):
    blocks, _, reports = pipeline
    by_name = {b.name: b for b in blocks}
    for entry in ENTRIES:
        if entry.kind == "conjecture":
            continue
        block = by_name[entry.name]
        if entry.kind == "proved":
            assert reports[entry.name].status == entry.expected_status == "ok"
        else:
            assert block.proof is None
            assert entry.expected_status == "stated"


def test_classifications_and_cycles(pipeline):
    blocks, _, reports = pipeline
    graph = graph_from_blocks(blocks, reports)
    assert tuple(graph.detect_cycles()) == EXPECTED_CYCLES
    for entry in ENTRIES:
        if entry.kind == "conjecture":
            continue
        assert graph.classify(entry.name) == entry.expected_classification, entry.name


def test_axiom_bases(pipeline):
    blocks, _, reports = pipeline
    graph = graph_from_blocks(blocks, reports)
    assert graph.axiom_basis("pappus_pons") == ("ANG_REFL", "SAS_ORD")
    assert graph.axiom_basis("pons_via_area") == (
        "euclidean_area_formula",
        "no_supplementary_pair",
        "sine_defs",
    )


def test_expected_edges_present(pipeline):
    blocks, _, reports = pipeline
    graph = graph_from_blocks(blocks, reports)
    edges = set(graph.all_edges())
    for entry in ENTRIES:
        for edge in entry.expected_edges:
            assert edge in edges, edge


# ---------------------------------------------------------------------------
# Mutation harness

BOGUS = "zz_mutant"


def _steps_paths(steps: Tuple, prefix: Tuple = ()) -> Iterator[Tuple]:
    """Index paths of every step, including steps nested in case branches."""
    for i, step in enumerate(steps):
        yield prefix + (i,)
        if isinstance(step, CasesStep):
            for bi, branch in enumerate(step.branches):
                yield from _steps_paths(branch.steps, prefix + (i, bi))


def _delete_step(steps: Tuple, path: Tuple) -> Tuple:
    if len(path) == 1:
        return steps[: path[0]] + steps[path[0] + 1 :]
    i, bi = path[0], path[1]
    step = steps[i]
    assert isinstance(step, CasesStep)
    branch = step.branches[bi]
    new_branch = branch._replace(
        steps=_delete_step(branch.steps, path[2:])
    )
    new_step = step._replace(
        branches=step.branches[:bi] + (new_branch,) + step.branches[bi + 1 :]
    )
    return steps[:i] + (new_step,) + steps[i + 1 :]


def _deletion_mutants(proof: Proof) -> List[Proof]:
    return [
        proof._replace(steps=_delete_step(proof.steps, path))
        for path in _steps_paths(proof.steps)
    ]


def _corrupt_ref_tuple(refs: Tuple[Ref, ...], idx: int) -> Tuple[Ref, ...]:
    ref = refs[idx]
    return refs[:idx] + (Ref(ref.kind, BOGUS),) + refs[idx + 1 :]


def _ref_sites(steps: Tuple, rebuild):
    """Yield (mutate_fn) closures, one per corruptible citation."""
    for i, step in enumerate(steps):
        def rebuild_step(new_step, i=i):
            return rebuild(steps[:i] + (new_step,) + steps[i + 1 :])

        if isinstance(step, (RuleStep, LayoffStep)):
            for ri, ref in enumerate(step.refs):
                if ref.kind == "label":
                    yield lambda step=step, ri=ri, rb=rebuild_step: rb(
                        step._replace(refs=_corrupt_ref_tuple(step.refs, ri))
                    )
        elif isinstance(step, CasesStep):
            for bi, branch in enumerate(step.branches):
                def rebuild_branch(new_branch, step=step, bi=bi, rb=rebuild_step):
                    return rb(
                        step._replace(
                            branches=step.branches[:bi]
                            + (new_branch,)
                            + step.branches[bi + 1 :],
                        )
                    )

                for ri, ref in enumerate(branch.close_refs):
                    if ref.kind == "label":
                        yield lambda branch=branch, ri=ri, rb=rebuild_branch: rb(
                            branch._replace(
                                close_refs=_corrupt_ref_tuple(branch.close_refs, ri),
                            )
                        )
                yield from _ref_sites(branch.steps, lambda s, rb=rebuild_branch,
                                      branch=branch: rb(branch._replace(steps=s)))


def _citation_mutants(proof: Proof) -> List[Proof]:
    out = []
    for make in _ref_sites(
        proof.steps, lambda s: proof._replace(steps=s)
    ):
        out.append(make())
    for ri, ref in enumerate(proof.qed_refs):
        if ref.kind == "label":
            out.append(
                proof._replace(qed_refs=_corrupt_ref_tuple(proof.qed_refs, ri))
            )
    return out


def test_mutation_kill_rate_is_total(pipeline):
    blocks, registry, _ = pipeline
    total = 0
    survivors = []
    for b in blocks:
        if b.name not in PROVED_NAMES or b.proof is None:
            continue
        mutants = _deletion_mutants(b.proof) + _citation_mutants(b.proof)
        assert mutants, b.name
        for m, mutant in enumerate(mutants):
            total += 1
            rep = check_proof(b.statement, mutant, registry)
            if rep.status != "failed":
                survivors.append((b.name, m))
    assert total >= 25, f"only {total} mutants generated"
    assert not survivors, survivors


def test_citation_corruption_is_located(pipeline):
    """Damaging one citation of the two-triangle congruence step makes
    the checker fail at exactly that step."""
    blocks, registry, _ = pipeline
    block = next(b for b in blocks if b.name == "euclid_i5")
    idx, step = next(
        (i, s)
        for i, s in enumerate(block.proof.steps)
        if isinstance(s, RuleStep) and s.label == "s4"
    )
    corrupted = step._replace(refs=_corrupt_ref_tuple(step.refs, 0))
    mutant = block.proof._replace(
        steps=block.proof.steps[:idx] + (corrupted,) + block.proof.steps[idx + 1 :],
    )
    rep = check_proof(block.statement, mutant, registry)
    assert rep.status == "failed"
    failing = [sr.label for sr in rep.steps if not sr.ok]
    assert failing == ["s4"]
