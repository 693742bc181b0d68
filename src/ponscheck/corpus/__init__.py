"""Bundled example scripts and what should hold for each of them.

The .proof files under ponscheck/corpus/ are both documentation and test
fixtures; the expectations recorded here (status after checking, how the
dependency analysis classifies the lead theorem, edges that must show up
in the graph) are asserted by the test suite and usable by downstream
code as a sanity harness.
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple, Tuple


class CorpusEntry(NamedTuple):
    name: str  # the block the expectations below are about
    filename: str
    kind: str  # "proved" | "stated" | "conjecture"
    expected_status: str  # check outcome for the lead block ("" for conjectures)
    expected_classification: str  # "" for conjectures
    expected_edges: Tuple[Tuple[str, str], ...] = ()


ENTRIES: Tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "pappus_pons", "pappus_pons.proof", "proved", "ok", "NEUTRAL"
    ),
    CorpusEntry(
        "euclid_i5", "euclid_i5.proof", "proved", "ok", "NEUTRAL"
    ),
    CorpusEntry(
        "euclid_i5_converse",
        "euclid_i5_converse.proof",
        "proved",
        "ok",
        "NEUTRAL",
    ),
    CorpusEntry(
        "pappus_converse", "pappus_converse.proof", "proved", "ok", "NEUTRAL"
    ),
    CorpusEntry(
        "euclid_i6", "euclid_i6.proof", "proved", "ok", "NEUTRAL"
    ),
    CorpusEntry(
        "bisector_pons",
        "bisector_pons.proof",
        "proved",
        "ok",
        "CYCLIC",
        (("bisector_pons", "bisector_foot"),),
    ),
    CorpusEntry(
        "bisector_foot",
        "euclid_chain.proof",
        "stated",
        "stated",
        "CYCLIC",
        (
            ("bisector_foot", "euclid_i9"),
            ("euclid_i9", "euclid_i8"),
            ("euclid_i8", "euclid_i7"),
            ("euclid_i7", "bisector_pons"),
        ),
    ),
    CorpusEntry(
        "pons_via_inscribed",
        "pons_via_inscribed.proof",
        "stated",
        "stated",
        "CYCLIC",
        (
            ("pons_via_inscribed", "inscribed_angle_theorem"),
            ("inscribed_angle_theorem", "pons_via_inscribed"),
            ("inscribed_angle_theorem", "parallel_postulate"),
        ),
    ),
    CorpusEntry(
        "pons_via_area",
        "pons_via_area.proof",
        "stated",
        "stated",
        "EUCLIDEAN_ONLY",
        (
            ("pons_via_area", "euclidean_area_formula"),
            ("pons_via_area", "sine_defs"),
            ("pons_via_area", "no_supplementary_pair"),
        ),
    ),
    CorpusEntry("angle_sum_pi", "anglesum.conj", "conjecture", "", ""),
)

PROOF_FILENAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(e.filename for e in ENTRIES if e.filename.endswith(".proof"))
)

PROVED_NAMES: Tuple[str, ...] = tuple(
    e.name for e in ENTRIES if e.kind == "proved"
)


def load_text(filename: str) -> str:
    return (resources.files("ponscheck.corpus") / filename).read_text()
