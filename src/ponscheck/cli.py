"""Command-line front end.

Subcommands:
  check   parse proof scripts, build their statements, kernel-check the proofs
  deps    dependency graph: classifications, cycles, DOT export
  model   numeric spot-checks of statements in the three models
  parse   syntax check, optionally dumping the canonical form

`check`, `deps` and `model` render one list of rows: `_rows` parses the
inputs, rejects an unknown conjecture and a block name defined twice or
naming a proof rule, builds every statement, checks every proof in the
kernel once, and returns the dependency graph with one `Row` per block,
then per conjecture.  A bad statement, or a name a proof gets wrong,
fails that block only.  `check` prints their statuses, `deps` their
classifications, `model` their model checks, and `--json` the rows
themselves.

`_rows` pauses the cyclic garbage collector, and `check` and `deps` keep it
paused until they have printed; each restores the caller's setting on every
exit.  The many small tuples, sets and dicts `_rows` builds stay live until
then, so a collection would scan them for nothing.

The numeric layer (`models`, `geometry`) is imported for `model` only, so
a fresh `check`, `deps` or `parse` process never loads it.  `model_check`
and `model_check_conjecture` import `models` and delegate to it only
because perfbench's tracer patches them here; they can go once it stops.

Exit codes: 0 success, 1 failed proofs / cyclic checked theorems /
model-check failures / a block name defined twice or naming a rule, 2
syntax or usage or IO errors (including a file that is not UTF-8), 141
(128 + SIGPIPE) without a message when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import MODEL_NAMES, UnknownConjecture, __version__, check_conjecture
from .corpus import ENTRIES, load_text
from .depgraph import CYCLIC, EUCLIDEAN_ONLY, Graph, emit_dot, graph_from_blocks
from .elaborate import collect_statements, elaborate_script
from .kernel import CheckReport, bad_statement, check_proof
from .rules import RULES
from .script import ConjectureAst, ParseError, ScriptAst, format_script, parse, parse_conjecture

if TYPE_CHECKING:
    from .models import ModelCheckReport


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_sources(paths: Sequence[str], use_corpus: bool) -> List[Tuple[str, str]]:
    """(display name, text) of every input; a name ending in `.conj` is a
    conjecture, any other a proof script."""
    sources: List[Tuple[str, str]] = []
    if use_corpus:
        for filename in dict.fromkeys(entry.filename for entry in ENTRIES):
            sources.append((f"corpus:{filename}", load_text(filename)))
    for raw in paths:
        try:
            text = Path(raw).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(2, f"cannot read {raw}: {exc}") from exc
        sources.append((raw, text))
    if not sources:
        raise CliError(2, "no input files (pass paths or --corpus)")
    return sources


def _parse(name: str, text: str) -> ScriptAst | ConjectureAst:
    try:
        return (parse_conjecture if name.endswith(".conj") else parse)(text)
    except ParseError as exc:
        raise CliError(2, f"{name}:{exc.line}:{exc.col}: syntax error: {exc.message}") from exc


class Row(NamedTuple):
    """The verdict on one block or conjecture.  `classification` is "" for
    a conjecture: it has no graph node, and its claim is euclidean, so it
    may diverge in the curved models.  `check` is `model`'s check in one
    model, None for a proof that failed `check` and for a bare declare."""

    name: str
    status: str  # "ok" | "failed" | "stated" | "conjecture"
    classification: str
    report: Optional[CheckReport]  # checked proofs only
    check: Optional[Callable[..., ModelCheckReport]]


def model_check(*args, **kwargs) -> ModelCheckReport:
    """models.model_check (see the module docstring)."""
    from .models import model_check
    return model_check(*args, **kwargs)


def model_check_conjecture(*args, **kwargs) -> ModelCheckReport:
    """models.model_check_conjecture (see the module docstring)."""
    from .models import model_check_conjecture
    return model_check_conjecture(*args, **kwargs)


class _GcPaused:  # the cyclic collector off, then as the caller had it
    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:  # nothing is allocated after the collector is back on
        (gc.enable if self.enabled else gc.disable)()


def _rows(
    args: argparse.Namespace, strict: bool = False, runs: Optional[dict] = None
) -> Tuple[Graph, List[Row]]:
    """Parse, elaborate and check the inputs once: the dependency graph and
    one row per block, then one per conjecture.  Given `runs` (the trials,
    seed and tolerance of `model`), each row is bound to its model check."""
    with _GcPaused():
        asts: List[Tuple[str, ScriptAst]] = []
        conjectures: List[ConjectureAst] = []
        for source, text in _read_sources(args.files, args.corpus):
            tree = _parse(source, text)
            if isinstance(tree, ScriptAst):
                asts.append((source, tree))
                continue
            try:
                check_conjecture(tree.name, tree.points)
            except UnknownConjecture as exc:
                raise CliError(2, f"unknown conjecture {exc}") from exc
            conjectures.append(tree)
        where: Dict[str, str] = {}  # block name -> file:line
        for source, ast in asts:
            for item in ast.items:
                at = f"{source}:{item.line}"
                if item.name in where:
                    raise CliError(1, f"{item.name} is defined twice: {where[item.name]} and {at}")
                if item.name in RULES:  # it would stand for the rule in the graph
                    raise CliError(1, f"{item.name} is the name of a rule: {at}")
                where[item.name] = at
        blocks = [b for _, ast in asts for b in elaborate_script(ast)]
        registry = collect_statements(blocks)
        reports: Dict[str, CheckReport] = {}
        for b in blocks:
            if b.error:
                reports[b.name] = bad_statement(b.name, b.error)
            elif b.proof is not None:
                reports[b.name] = check_proof(b.statement, b.proof, registry, strict=strict)
        graph = graph_from_blocks(blocks, reports)
        rows: List[Row] = []
        for b in blocks:
            rep = reports.get(b.name)
            status = rep.status if rep else "stated"
            check = None
            if runs is not None and b.statement is not None and status != "failed":
                steps = b.proof.steps if b.proof is not None else ()
                check = partial(
                    model_check, statement=b.statement, steps=steps, registry=registry, **runs
                )
            rows.append(Row(b.name, status, graph.classify(b.name), rep, check))
        for conj in conjectures:
            check = None
            if runs is not None:
                check = partial(model_check_conjecture, name=conj.name, points=conj.points, **runs)
            rows.append(Row(conj.name, "conjecture", "", None, check))
        return graph, rows


def _print_json(
    graph: Graph, rows: List[Row], seed: int,
    models: Optional[List[Dict[str, ModelCheckReport]]] = None,
) -> None:
    """The rows as a JSON report; `models` holds each row's model checks."""
    theorems = [
        {
            "name": row.name,
            "status": row.status,
            "classification": row.classification,
            "axioms": list(graph.axiom_basis(row.name)) if row.classification else [],
            "assumptions": [list(t) for t in row.report.assumed] if row.report else [],
            "models": {m: r.as_dict() for m, r in sorted(per_model.items())},
        }
        for row, per_model in zip(rows, models or [{} for _ in rows])
    ]
    report = {"version": __version__, "seed": seed, "theorems": theorems}
    print(json.dumps(report, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    with _GcPaused():
        graph, rows = _rows(args, strict=args.strict_degeneracy)
        if args.json:
            _print_json(graph, rows, args.seed)
        else:
            for row in rows:
                conjecture = row.status == "conjecture"
                note = " (numeric only; see the model command)" if conjecture else ""
                print(f"{row.name}: {row.status}{note}")
                if row.status != "failed":
                    continue
                bad_steps = [sr for sr in row.report.steps if not sr.ok]
                for sr in bad_steps:
                    where = f" (line {sr.line})" if sr.line else ""
                    print(f"  step {sr.label}{where}: {sr.detail}")
                if row.report.error and not bad_steps:
                    print(f"  error: {row.report.error}")
        return 1 if any(row.status == "failed" for row in rows) else 0


# ---------------------------------------------------------------------------
# deps


def cmd_deps(args: argparse.Namespace) -> int:
    with _GcPaused():
        graph, rows = _rows(args)
        for row in rows:
            if row.classification:
                print(f"{row.name}: {row.classification}")
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
        checked_cyclic = any(row.report and row.classification == CYCLIC for row in rows)
        return 1 if checked_cyclic else 0


# ---------------------------------------------------------------------------
# model


def _describe_counterexample(rep: ModelCheckReport) -> str:
    ce = rep.first_counterexample  # set by the first failed trial
    coords = ", ".join(
        f"{n}=({', '.join(f'{x:.6f}' for x in v)})" for n, v in ce.points
    )
    return f"trial {ce.trial}: {ce.fact} at {coords}"


def cmd_model(args: argparse.Namespace) -> int:
    from .geometry import get_model
    from .models import profile
    if args.trials < 1:
        raise CliError(2, f"--trials must not be negative or zero, got {args.trials}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
        raise CliError(2, f"--tol must be finite and positive, got {args.tol}")
    tol = profile(args.tol) if args.tol is not None else None
    graph, rows = _rows(args, runs=dict(trials=args.trials, seed=args.seed, tol=tol))
    names = MODEL_NAMES if args.model == "all" else (args.model,)
    hard_failures = 0
    collected: List[Dict[str, ModelCheckReport]] = [{} for _ in rows]
    lines: List[List[str]] = [[] for _ in rows]  # each row's, in model order
    for model in map(get_model, names):
        samples: dict = {}  # this model's: blocks with equal points and hypotheses share draws
        for row, reps, out in zip(rows, collected, lines):
            if row.status == "failed":  # its steps are not replayed
                hard_failures += 1
                out.append(f"{row.name} [{model.name}] proof-failed")
                continue
            if row.check is None:
                continue
            rep = reps[model.name] = row.check(model, samples=samples)
            base = (
                f"{row.name} [{model.name}] trials={rep.trials_run}"
                f" failures={rep.failures} skipped={rep.skipped}"
            )
            if rep.trials_run == 0:  # a model check with no evaluated trial is not a pass
                hard_failures += 1
                out.append(base + "  FAILED: no trial evaluated")
                continue
            if rep.failures == 0:
                out.append(base)
                continue
            if model.flat or row.classification not in (EUCLIDEAN_ONLY, ""):
                hard_failures += 1
                out.append(base + "  FAILED")
            else:
                out.append(
                    f"{row.name} [{model.name}] expected-divergence"
                    f" ({rep.failures}/{rep.trials_run} diverge)"
                )
            out.append("  counterexample " + _describe_counterexample(rep))
    if args.json:
        _print_json(graph, rows, args.seed, collected)
    else:
        for line in (line for out in lines for line in out):
            print(line)
    return 1 if hard_failures else 0


# ---------------------------------------------------------------------------
# parse


def cmd_parse(args: argparse.Namespace) -> int:
    for name, text in _read_sources(args.files, args.corpus):
        tree = _parse(name, text)
        if isinstance(tree, ConjectureAst):
            if args.dump_ast:
                print(f"conjecture {tree.name}")
                print(f"  points {' '.join(tree.points)}")
            else:
                print(f"{name}: ok (conjecture {tree.name})")
        elif args.dump_ast:
            print(format_script(tree))
        else:
            print(f"{name}: ok ({len(tree.items)} blocks)")
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so that a closed pipe is caught below
        return code
    except CliError as exc:
        print(f"ponscheck: {exc.message}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:  # the reader closed stdout (`| head`): the exit's flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
