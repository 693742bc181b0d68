"""Command-line front end.

Subcommands:
  check   parse, elaborate, and kernel-check proof scripts
  deps    dependency graph: classifications, cycles, DOT export
  model   numeric spot-checks of statements in the three models
  parse   syntax check, optionally dumping the canonical form

Exit codes: 0 success, 1 failed proofs / cyclic checked theorems /
model-check failures, 2 syntax or usage or IO errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .corpus import ENTRIES, load_text
from .depgraph import CYCLIC, EUCLIDEAN_ONLY, Graph, emit_dot, graph_from_blocks
from .elaborate import ElaboratedBlock, ElaborationError, collect_statements, elaborate_script
from .geometry import MODEL_NAMES, Model, get_model
from .kernel import CheckReport, TheoremStatement, check_proof
from .models import (
    ModelCheckReport,
    UnknownConjecture,
    conjecture_statement,
    model_check,
    model_check_conjecture,
    profile,
)
from .script import ConjectureAst, ParseError, format_script, parse, parse_conjecture


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Source:
    name: str  # display name for messages
    text: str
    kind: str  # "proof" | "conjecture"


def _kind_for(filename: str) -> str:
    return "conjecture" if filename.endswith(".conj") else "proof"


def _read_sources(paths: Sequence[str], use_corpus: bool) -> List[Source]:
    sources: List[Source] = []
    if use_corpus:
        seen = set()
        for entry in ENTRIES:
            if entry.filename in seen:
                continue
            seen.add(entry.filename)
            sources.append(
                Source(
                    name=f"corpus:{entry.filename}",
                    text=load_text(entry.filename),
                    kind=_kind_for(entry.filename),
                )
            )
    for raw in paths:
        path = Path(raw)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(2, f"cannot read {raw}: {exc}") from exc
        sources.append(Source(name=raw, text=text, kind=_kind_for(raw)))
    if not sources:
        raise CliError(2, "no input files (pass paths or --corpus)")
    return sources


@dataclass
class Pipeline:
    blocks: List[ElaboratedBlock]
    registry: Dict[str, TheoremStatement]
    reports: Dict[str, CheckReport]  # proof-bearing blocks only
    conjectures: List[ConjectureAst]

    def graph(self) -> Graph:
        return graph_from_blocks(self.blocks, self.reports)


def _build_pipeline(sources: Sequence[Source], strict: bool) -> Pipeline:
    asts = []
    conjectures: List[ConjectureAst] = []
    for src in sources:
        try:
            if src.kind == "conjecture":
                conjectures.append(parse_conjecture(src.text))
            else:
                asts.append(parse(src.text))
        except ParseError as exc:
            raise CliError(
                2, f"{src.name}:{exc.line}:{exc.col}: syntax error: {exc.message}"
            ) from exc
    registry: Dict[str, TheoremStatement] = {}
    blocks: List[ElaboratedBlock] = []
    try:
        for ast in asts:
            for name, stmt in collect_statements(ast).items():
                if name in registry:
                    raise CliError(1, f"theorem {name} defined in more than one file")
                registry[name] = stmt
        for ast in asts:
            blocks.extend(elaborate_script(ast, registry))
    except ElaborationError as exc:
        raise CliError(1, f"elaboration error: {exc}") from exc
    reports = {
        b.name: check_proof(b.statement, b.proof, registry, strict=strict)
        for b in blocks
        if b.proof is not None and b.statement is not None
    }
    return Pipeline(blocks, registry, reports, conjectures)


def _block_status(pipeline: Pipeline, block: ElaboratedBlock) -> str:
    if block.name in pipeline.reports:
        return pipeline.reports[block.name].status
    return "stated"


def _run_report(
    pipeline: Pipeline,
    seed: int,
    models: Optional[Dict[str, Dict[str, ModelCheckReport]]] = None,
) -> Dict[str, object]:
    graph = pipeline.graph()
    theorems = []
    for block in pipeline.blocks:
        rep = pipeline.reports.get(block.name)
        per_model = (models or {}).get(block.name, {})
        theorems.append(
            {
                "name": block.name,
                "status": _block_status(pipeline, block),
                "classification": graph.classify(block.name),
                "axioms": list(graph.axiom_basis(block.name)),
                "assumptions": [list(t) for t in rep.assumed] if rep else [],
                "models": {m: r.as_dict() for m, r in sorted(per_model.items())},
            }
        )
    for conj in pipeline.conjectures:
        per_model = (models or {}).get(conj.name, {})
        theorems.append(
            {
                "name": conj.name,
                "status": "conjecture",
                "classification": "",
                "axioms": [],
                "assumptions": [],
                "models": {m: r.as_dict() for m, r in sorted(per_model.items())},
            }
        )
    return {"version": __version__, "seed": seed, "theorems": theorems}


def _print_json(report: Dict[str, object]) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    sources = _read_sources(args.files, args.corpus)
    pipeline = _build_pipeline(sources, strict=args.strict_degeneracy)
    failed = 0
    lines: List[str] = []
    for block in pipeline.blocks:
        status = _block_status(pipeline, block)
        lines.append(f"{block.name}: {status}")
        if status == "failed":
            failed += 1
            rep = pipeline.reports[block.name]
            bad_steps = [sr for sr in rep.steps if not sr.ok]
            for sr in bad_steps:
                where = f" (line {sr.line})" if sr.line else ""
                lines.append(f"  step {sr.label}{where}: {sr.detail}")
            if rep.error and not bad_steps:
                lines.append(f"  error: {rep.error}")
    for conj in pipeline.conjectures:
        lines.append(f"{conj.name}: conjecture (numeric only; see the model command)")
    if args.json:
        _print_json(_run_report(pipeline, args.seed))
    else:
        for line in lines:
            print(line)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# deps


def cmd_deps(args: argparse.Namespace) -> int:
    sources = _read_sources(args.files, args.corpus)
    pipeline = _build_pipeline(sources, strict=False)
    graph = pipeline.graph()
    for block in pipeline.blocks:
        print(f"{block.name}: {graph.classify(block.name)}")
    cycles = graph.detect_cycles()
    if cycles:
        print("cycles:")
        for cycle in cycles:
            print("  " + " ".join(cycle))
    if args.dot is not None:
        try:
            Path(args.dot).write_text(emit_dot(graph), encoding="utf-8")
        except OSError as exc:
            raise CliError(2, f"cannot write {args.dot}: {exc}") from exc
    checked_cyclic = [
        name for name in pipeline.reports if graph.classify(name) == CYCLIC
    ]
    return 1 if checked_cyclic else 0


# ---------------------------------------------------------------------------
# model


def _permitted(classification: str, model: Model) -> bool:
    """Whether a failure in this model counts against the theorem."""
    return not (classification == EUCLIDEAN_ONLY and not model.flat)


def _describe_counterexample(rep: ModelCheckReport) -> str:
    ce = rep.first_counterexample
    if ce is None:
        return ""
    coords = ", ".join(
        f"{n}=({', '.join(f'{x:.6f}' for x in v)})" for n, v in ce.points
    )
    return f"trial {ce.trial}: {ce.fact} at {coords}"


def cmd_model(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise CliError(2, f"--trials must not be negative or zero, got {args.trials}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
        raise CliError(2, f"--tol must be finite and positive, got {args.tol}")
    sources = _read_sources(args.files, args.corpus)
    pipeline = _build_pipeline(sources, strict=False)
    graph = pipeline.graph()
    model_list = (
        [get_model(n) for n in MODEL_NAMES]
        if args.model == "all"
        else [get_model(args.model)]
    )
    tol = profile(args.tol) if args.tol is not None else None
    runs = dict(trials=args.trials, seed=args.seed, tol=tol)
    # (name, classification, check of one model); a conjecture carries a
    # euclidean claim, so divergence in the curved models is expected, and a
    # proof that failed `check` gets no check: its steps are not replayed
    checks: List[Tuple[str, str, Optional[Callable[..., ModelCheckReport]]]] = []
    for block in pipeline.blocks:
        if block.statement is None:
            continue
        steps = block.proof.steps if block.proof is not None else ()
        run = partial(
            model_check, statement=block.statement, steps=steps,
            registry=pipeline.registry, **runs,
        )
        failed = _block_status(pipeline, block) == "failed"
        checks.append((block.name, graph.classify(block.name), None if failed else run))
    for conj in pipeline.conjectures:
        try:
            conjecture_statement(conj.name, conj.points)
        except UnknownConjecture as exc:
            raise CliError(2, f"unknown conjecture {exc}") from exc
        run = partial(model_check_conjecture, name=conj.name, points=conj.points, **runs)
        checks.append((conj.name, EUCLIDEAN_ONLY, run))
    hard_failures = 0
    collected: Dict[str, Dict[str, ModelCheckReport]] = {}
    lines: List[List[str]] = [[] for _ in checks]  # each check's, in model order
    for model in model_list:
        samples: dict = {}  # this model's: blocks with equal points and hypotheses share draws
        for (name, cls, run), out in zip(checks, lines):
            if run is None:
                hard_failures += 1
                out.append(f"{name} [{model.name}] proof-failed")
                continue
            rep = run(model, samples=samples)
            collected.setdefault(name, {})[model.name] = rep
            base = (
                f"{name} [{model.name}] trials={rep.trials_run}"
                f" failures={rep.failures} skipped={rep.skipped}"
            )
            if rep.trials_run == 0:  # a model check with no evaluated trial is not a pass
                hard_failures += 1
                out.append(base + "  FAILED: no trial evaluated")
                continue
            if rep.failures == 0:
                out.append(base)
                continue
            if _permitted(cls, model):
                hard_failures += 1
                out.append(base + "  FAILED")
            else:
                out.append(
                    f"{name} [{model.name}] expected-divergence"
                    f" ({rep.failures}/{rep.trials_run} diverge)"
                )
            out.append("  counterexample " + _describe_counterexample(rep))
    if args.json:
        _print_json(_run_report(pipeline, args.seed, collected))
    else:
        for line in (line for out in lines for line in out):
            print(line)
    return 1 if hard_failures else 0


# ---------------------------------------------------------------------------
# parse


def cmd_parse(args: argparse.Namespace) -> int:
    sources = _read_sources(args.files, args.corpus)
    for src in sources:
        try:
            if src.kind == "conjecture":
                conj = parse_conjecture(src.text)
                if args.dump_ast:
                    print(f"conjecture {conj.name}")
                    print(f"  points {' '.join(conj.points)}")
                else:
                    print(f"{src.name}: ok (conjecture {conj.name})")
            else:
                ast = parse(src.text)
                if args.dump_ast:
                    print(format_script(ast))
                else:
                    print(f"{src.name}: ok ({len(ast.items)} blocks)")
        except ParseError as exc:
            raise CliError(
                2, f"{src.name}:{exc.line}:{exc.col}: syntax error: {exc.message}"
            ) from exc
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("files", nargs="*", help="proof scripts (.proof) or conjectures (.conj)")
    sub.add_argument(
        "--corpus", action="store_true", help="include the bundled theorem corpus"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ponscheck",
        description="proof checker for the isosceles base-angle theorems",
    )
    parser.add_argument("--version", action="version", version=f"ponscheck {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="check proof scripts")
    _add_common(p_check)
    p_check.add_argument(
        "--strict-degeneracy",
        action="store_true",
        help="reject steps whose noncollinearity side conditions are not derivable",
    )
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    p_check.set_defaults(func=cmd_check)

    p_deps = subs.add_parser("deps", help="dependency classifications and cycles")
    _add_common(p_deps)
    p_deps.add_argument("--dot", metavar="PATH", help="write the graph in DOT format")
    p_deps.set_defaults(func=cmd_deps)

    p_model = subs.add_parser("model", help="numeric model checks")
    _add_common(p_model)
    p_model.add_argument(
        "--model",
        choices=list(MODEL_NAMES) + ["all"],
        default="all",
        help="which geometry to sample (default: all)",
    )
    p_model.add_argument("--trials", type=int, default=1000)
    p_model.add_argument("--seed", type=int, default=0)
    p_model.add_argument(
        "--tol", type=float, default=None, help="override the equality tolerance"
    )
    p_model.add_argument("--json", action="store_true", help="machine-readable report")
    p_model.set_defaults(func=cmd_model)

    p_parse = subs.add_parser("parse", help="syntax-check scripts")
    _add_common(p_parse)
    p_parse.add_argument(
        "--dump-ast", action="store_true", help="print the canonical form"
    )
    p_parse.set_defaults(func=cmd_parse)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"ponscheck: {exc.message}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
