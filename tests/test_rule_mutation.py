"""Mutation gate for the rule soundness harness: each schema is damaged in
one place, and the harness must refute every damaged schema that is not
equivalent to the original, in every model.

Mutants (DeMillo, Lipton and Sayward, "Hints on test data selection",
Computer 11(4), 1978) delete one premise or side condition, or replace one
schema variable by another in one conclusion.  A mutant is caught when it
fails a trial in every model; one with no evaluated trial is not caught.
Each model runs rounds of growing length at one seed and stops at the first
failure, so only the survivors pay for the longest round.
"""

from ponscheck.geometry import MODELS
from ponscheck.models import check_rule_soundness
from ponscheck.rules import RULES
from ponscheck.terms import subst_fact

SEED = 5
ROUNDS = (5, 20, 75, 200)

_MEASURE_ZERO = "its degenerate case has measure zero, so no sample reaches it"
_FOLLOWS = "p and q lie on the line x y, so z off it is off the line p q"

# Mutants no sampled trial can refute, each with the reason.
EQUIVALENT = {
    ("SAS_ORD", "side_conditions", 0): _MEASURE_ZERO,
    ("SAS_ORD", "side_conditions", 1): _MEASURE_ZERO,
    ("ASA_ORD", "side_conditions", 0): _MEASURE_ZERO,
    ("ASA_ORD", "side_conditions", 1): _MEASURE_ZERO,
    ("SUPP_CONG", "side_conditions", 0): _MEASURE_ZERO,
    ("SUPP_CONG", "side_conditions", 1): _MEASURE_ZERO,
    ("ARM_SUBST", "side_conditions", 0): _MEASURE_ZERO,
    ("WHOLE_PART_ANG", "side_conditions", 0): _MEASURE_ZERO,
    ("NC_TRANSFER", "premises", 0): _MEASURE_ZERO,
    ("ARM_SUBST", "conclusions", 0, "w", "m"): "reflexive: ang m v z == ang m v z",
    ("ARM_SUBST", "conclusions", 0, "m", "w"): "reflexive: ang w v z == ang w v z",
    ("NC_TRANSFER", "conclusions", 0, "p", "x"): _FOLLOWS,
    ("NC_TRANSFER", "conclusions", 0, "p", "y"): _FOLLOWS,
    ("NC_TRANSFER", "conclusions", 0, "q", "x"): _FOLLOWS,
    ("NC_TRANSFER", "conclusions", 0, "q", "y"): _FOLLOWS,
}


def _renamed(fact, variables, x, y):
    """The schema fact with variable x read as y; ValueError if it degenerates."""
    return subst_fact(fact, {p: y if p == x else p for p in variables})


def _mutants():
    """(mutant id, rule id, mutated schema) for every non-ABSURD rule: each
    premise and side condition deleted, then each distinct conclusion with
    one variable x read as another y (skipping degenerate ones and those
    equal to the original)."""
    for rule_id, schema in RULES.items():
        if rule_id.startswith("ABSURD"):
            continue
        for field in ("premises", "side_conditions"):
            parts = getattr(schema, field)
            for i in range(len(parts)):
                yield (rule_id, field, i), rule_id, schema._replace(**{field: parts[:i] + parts[i + 1:]})
        seen = {schema.conclusions}
        for i, fact in enumerate(schema.conclusions):
            for x in schema.variables:
                for y in schema.variables:
                    if x == y:
                        continue
                    conclusions = list(schema.conclusions)
                    try:
                        conclusions[i] = _renamed(fact, schema.variables, x, y)
                    except ValueError:
                        continue
                    facts = tuple(conclusions)
                    if facts not in seen:
                        seen.add(facts)
                        yield (rule_id, "conclusions", i, x, y), rule_id, schema._replace(conclusions=facts)


def _caught(rule_id: str) -> bool:
    return all(
        any(check_rule_soundness(model, rule_id, trials=n, seed=SEED).failures for n in ROUNDS)
        for model in MODELS.values()
    )


def test_the_rule_harness_catches_every_mutant_that_is_not_equivalent(monkeypatch):
    ids, survivors = [], []
    for mutant_id, rule_id, mutant in _mutants():
        ids.append(mutant_id)
        monkeypatch.setitem(RULES, rule_id, mutant)
        if mutant_id not in EQUIVALENT and not _caught(rule_id):
            survivors.append(mutant_id)
    assert set(EQUIVALENT) <= set(ids)
    assert survivors == []

