"""Seeded inputs for the three benchmark workloads, with their known answers.

Every generator is a pure function of its seed: the same seed gives the
same files and the same request list.  Each request carries the verdict
the oracle expects, written down here from what the generator built or
from the hand-written `corpus.ENTRIES`, never from earlier program output.

Workloads (see BENCHMARK.json for why each was chosen):

* corpus_model - `model --corpus --json` per model over several seeds:
  the numeric layers (sample, replay, solve, evaluate) do the work.
* long_proofs  - synthetic single-theorem scripts of 250 to 2000 steps in
  three shapes, checked strictly and run through `deps`: parser, kernel
  and `terms.LineTable` do the work.
* library      - one script of K renamed, shuffled copies of the corpus
  proof files, through `check --json` and `deps`: many small proofs, so
  per-block costs and the dependency graph do the work.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("corpus_model", "long_proofs", "library")

MODEL_NAMES = ("euclidean", "poincare", "sphere")

# corpus_model: trials per request and program seeds per pass.
MODEL_TRIALS = 50
MODEL_SEEDS_PER_PASS = 2

# long_proofs: step counts of the clean scripts, one per shape and size,
# plus one defective script per shape at DEFECT_SIZE.
SIZES = (250, 500, 1000, 2000)
SHAPES = ("extend", "cases", "refl")
DEFECT_SIZE = 1000

# library: renamed copies of the corpus proof files in each script.
LIBRARY_COPIES = (4, 8, 16)

# Hand-written expectations for the corpus blocks that ENTRIES does not
# list; the lead blocks come from ENTRIES itself.
EXTRA_BLOCKS = {
    "euclid_i9": ("stated", "CYCLIC"),
    "euclid_i8": ("stated", "CYCLIC"),
    "euclid_i7": ("stated", "CYCLIC"),
    "inscribed_angle_theorem": ("stated", "CYCLIC"),
    "parallel_postulate": ("stated", "EUCLIDEAN_ONLY"),
    "euclidean_area_formula": ("stated", "EUCLIDEAN_ONLY"),
    "sine_defs": ("stated", "EUCLIDEAN_ONLY"),
    "no_supplementary_pair": ("stated", "EUCLIDEAN_ONLY"),
}
EXPECTED_CYCLES = (
    frozenset({"bisector_foot", "bisector_pons", "euclid_i7", "euclid_i8", "euclid_i9"}),
    frozenset({"inscribed_angle_theorem", "pons_via_inscribed"}),
)


@dataclass(frozen=True)
class Expect:
    """What one request must produce.

    `blocks` maps block name to (status, classification).  For a model
    check, `diverge` maps every block that must be model-checked to the
    models in which it must fail; a failure elsewhere is permitted only
    for a euclidean-only block in a curved model.  `failed_step` is the
    step a defective proof must fail at; `cycles` the node sets `deps`
    must print."""

    exit_code: int
    blocks: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    diverge: Optional[Dict[str, Tuple[str, ...]]] = None
    model: str = ""
    failed_step: str = ""
    cycles: Tuple[frozenset, ...] = ()
    strict: bool = False


@dataclass(frozen=True)
class Request:
    kind: str  # "check_json" | "check_text" | "deps" | "model_json"
    argv: Tuple[str, ...]
    expect: Expect
    tag: str = ""  # shape and size for long_proofs, copy count for library


# ---------------------------------------------------------------------------
# corpus_model


def corpus_blocks(entries) -> Dict[str, Tuple[str, str]]:
    blocks = {e.name: (e.expected_status, e.expected_classification) for e in entries if e.kind != "conjecture"}
    blocks.update(EXTRA_BLOCKS)
    for e in entries:
        if e.kind == "conjecture":
            blocks[e.name] = ("conjecture", "")
    return blocks


# Corpus blocks that are theorems without a proof; `model` samples them
# like proved ones, while declare blocks have no statement to sample.
STATED_THEOREMS = ("bisector_foot",)


def corpus_model_requests(seed: int, pass_index: int, entries, trials: int = MODEL_TRIALS) -> List[Request]:
    """Each pass draws fresh program seeds, so a run averages over many."""
    rng = Random(f"corpus_model:{seed}:{pass_index}")
    blocks = corpus_blocks(entries)
    checked = [e.name for e in entries if e.kind == "proved"] + list(STATED_THEOREMS)
    diverge = {name: () for name in checked}
    # The angle sum is pi in the euclidean model only.
    diverge.update({e.name: ("poincare", "sphere") for e in entries if e.kind == "conjecture"})
    out = []
    for _ in range(MODEL_SEEDS_PER_PASS):
        program_seed = rng.randrange(1, 10**6)
        for model in MODEL_NAMES:
            argv = ("model", "--corpus", "--json", "--model", model,
                    "--trials", str(trials), "--seed", str(program_seed))
            out.append(Request("model_json", argv, Expect(0, blocks, diverge, model), model))
    return out


# ---------------------------------------------------------------------------
# long_proofs


def _header(name: str, points: str, hyp: str, goal: str) -> List[str]:
    return [
        f"theorem {name}",
        "  tags: neutral",
        f"  points {points}",
        f"  assume h1: {hyp}",
        f"  show {goal}",
        "  proof",
    ]


def extend_script(name: str, steps: int, rng: Random, defect_at: int = -1) -> Tuple[str, str]:
    """`extend` plus `ARM_SUBST` pairs along one line through A and B.

    Every extension grows the same recorded line, and every ARM_SUBST
    needs noncollinear(v, w, C), which only an NC_TRANSFER probe from
    the hypothesis can derive in strict mode.  Returns (text, label of
    the step the defect breaks)."""
    lines = _header(name, "A B C", "noncollinear A B C", "seg A B == seg A B")
    chain = ["A", "B"]
    bad = ""
    for k in range(1, steps // 2 + 1):
        v, m = chain[-2], chain[-1]
        w = f"Q{k}"
        seg = rng.choice(("A B", "A C", "B C"))
        lines.append(f"    e{k}: extend {v} {m} by seg {seg} as {w}")
        z, cite = "C", f"e{k}"
        if 2 * k == defect_at:
            bad = f"a{k}"
            if rng.random() < 0.5:
                z = "A"  # on the line: the side condition fails
            else:
                cite = f"e{k - 1}" if k > 1 else "h1"  # wrong premise
        lines.append(f"    a{k}: ang {w} {v} {z} == ang {m} {v} {z} by ARM_SUBST[{v},{w},{m},{z}] from {cite}")
        chain.append(w)
    lines.append("    g: seg A B == seg A B by SEG_REFL[A,B] from refl")
    lines.append("  qed from g")
    return "\n".join(lines) + "\n", bad


def cases_script(name: str, steps: int, rng: Random, defect_at: int = -1) -> Tuple[str, str]:
    """A run of trichotomy splits, each closing all three branches on the
    goal, so every step copies the proof state three times."""
    lines = _header(name, "A B C", "seg A B == seg A C", "seg A B == seg A C")
    bad = ""
    pairs = ("seg A B vs seg A C", "seg A C vs seg A B", "seg B C vs seg A B", "seg A B vs seg B C")
    for k in range(1, steps + 1):
        lines.append(f"    c{k}: cases {rng.choice(pairs)}")
        wrong = ""
        if k == defect_at:
            wrong = rng.choice(("lt", "gt"))
            bad = f"c{k} case {wrong} close"
        for kind in ("lt", "eq", "gt"):
            lines.append(f"    case {kind}")
            cite = f"c{k}.{kind}" if kind == wrong else "h1"
            lines.append(f"      close goal from {cite}")
    lines.append(f"  qed from c{steps}")
    return "\n".join(lines) + "\n", bad


def refl_script(name: str, steps: int, rng: Random, defect_at: int = -1) -> Tuple[str, str]:
    """SEG_REFL steps on seeded segments: linear work per step."""
    lines = _header(name, "A B C D", "noncollinear A B C", "seg A B == seg A B")
    bad = ""
    for k in range(1, steps):
        x, y = rng.sample("ABCD", 2)
        right = f"{x} {y}"
        if k == defect_at:
            bad = f"r{k}"
            right = f"{x} {next(p for p in 'ABCD' if p not in (x, y))}"
        lines.append(f"    r{k}: seg {x} {y} == seg {right} by SEG_REFL[{x},{y}] from refl")
    lines.append(f"    r{steps}: seg A B == seg A B by SEG_REFL[A,B] from refl")
    lines.append(f"  qed from r{steps}")
    return "\n".join(lines) + "\n", bad


GENERATORS = {"extend": extend_script, "cases": cases_script, "refl": refl_script}


def long_proof_scripts(seed: int, sizes=SIZES, defect_size=DEFECT_SIZE) -> List[Tuple[str, str, int, str, str]]:
    """(shape, filename stem, size, text, defect label or "")."""
    rng = Random(f"long_proofs:{seed}")
    out = []
    for shape in SHAPES:
        gen = GENERATORS[shape]
        for size in sizes:
            name = f"{shape}_{size}_s{seed}"
            text, _ = gen(name, size, rng)
            out.append((shape, name, size, text, ""))
        # The defect sits in the last fifth of the script, so the kernel
        # runs most of the proof before it fails.
        at = rng.randrange(defect_size * 4 // 5, defect_size - 1)
        if shape == "extend":
            at += at % 2  # an ARM_SUBST step
        name = f"{shape}_{defect_size}_bad_s{seed}"
        text, bad = gen(name, defect_size, rng, defect_at=at)
        out.append((shape, name, defect_size, text, bad))
    return out


def long_proof_requests(scripts, workdir: Path) -> List[Request]:
    out = []
    for shape, name, size, text, bad in scripts:
        path = str(workdir / f"{name}.proof")
        status = "failed" if bad else "ok"
        blocks = {name: (status, "NEUTRAL")}
        tag = f"{shape}.n{size}" + (".bad" if bad else "")
        check_exit = 1 if bad else 0
        out.append(Request("check_json", ("check", "--strict-degeneracy", "--json", path),
                           Expect(check_exit, blocks, strict=True), tag))
        if bad:
            # The JSON report has no step diagnostics; the text one names
            # the step that failed.
            out.append(Request("check_text", ("check", "--strict-degeneracy", path),
                               Expect(1, blocks, failed_step=bad), tag))
        else:
            out.append(Request("deps", ("deps", path), Expect(0, blocks), tag))
    return out


# ---------------------------------------------------------------------------
# library

_HEADER_RE = re.compile(r"^(theorem|declare)\s+([A-Za-z_]\w*)", re.M)


def corpus_chunks(texts: Dict[str, str]) -> List[str]:
    """Split corpus files into one chunk per theorem/declare block."""
    chunks = []
    for fname in sorted(texts):
        text = texts[fname]
        starts = [m.start() for m in _HEADER_RE.finditer(text)]
        for a, b in zip(starts, starts[1:] + [len(text)]):
            chunks.append(text[a:b].rstrip() + "\n")
    return chunks


def library_script(seed: int, copies: int, texts: Dict[str, str], entries) -> Tuple[str, Dict[str, Tuple[str, str]], Tuple[frozenset, ...]]:
    """K copies of every corpus proof file with block names suffixed per
    copy and the block order shuffled; returns the text and the expected
    (status, classification) of every block and the expected cycles."""
    rng = Random(f"library:{seed}:{copies}")
    chunks = corpus_chunks(texts)
    names = sorted({m.group(2) for t in texts.values() for m in _HEADER_RE.finditer(t)}, key=len, reverse=True)
    name_re = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    expected_base = corpus_blocks(entries)
    blocks: Dict[str, Tuple[str, str]] = {}
    cycles = []
    out = []
    for k in range(copies):
        suffix = f"_k{rng.randrange(10**6)}x{k}"
        out.extend(name_re.sub(lambda m: m.group(1) + suffix, c) for c in chunks)
        for n in names:
            blocks[n + suffix] = expected_base[n]
        cycles.extend(frozenset(n + suffix for n in cyc) for cyc in EXPECTED_CYCLES)
    rng.shuffle(out)
    return "\n".join(out), blocks, tuple(cycles)


def library_requests(seed: int, texts: Dict[str, str], entries, workdir: Path,
                     copy_counts=LIBRARY_COPIES) -> Tuple[List[Request], Dict[str, str]]:
    out = []
    files = {}
    for copies in copy_counts:
        text, blocks, cycles = library_script(seed, copies, texts, entries)
        path = workdir / f"library_{copies}_s{seed}.proof"
        files[str(path)] = text
        tag = f"k{copies}"
        # bisector_pons is a checked theorem on a cycle, so deps exits 1.
        out.append(Request("check_json", ("check", "--json", str(path)), Expect(0, blocks), tag))
        out.append(Request("deps", ("deps", str(path)), Expect(1, blocks, cycles=cycles), tag))
    return out, files
