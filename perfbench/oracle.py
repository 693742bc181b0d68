"""Known-answer checks of one request's output.

`verdict_errors(request, exit_code, stdout)` returns the list of ways the
output differs from what `request.expect` says; an empty list is a
correct verdict.  The expectations come from the generators and the
hand-written corpus table in workloads.py.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from workloads import Expect, Request


def _compare_blocks(got: Dict[str, Tuple[str, str]], want: Dict[str, Tuple[str, str]], what: str) -> List[str]:
    errors = []
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        errors.append(f"{what}: missing blocks {missing[:3]}")
    if extra:
        errors.append(f"{what}: unexpected blocks {extra[:3]}")
    for name in sorted(set(want) & set(got)):
        if got[name] != want[name]:
            errors.append(f"{what}: {name} is {got[name]}, expected {want[name]}")
    return errors


def _json_report(expect: Expect, stdout: str) -> List[str]:
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"]
    theorems = report.get("theorems", [])
    got = {t["name"]: (t["status"], t["classification"]) for t in theorems}
    errors = _compare_blocks(got, expect.blocks, "json")
    if expect.strict:
        errors += [f"{t['name']}: assumed {t['assumptions']} in strict mode" for t in theorems if t["assumptions"]]
    if expect.diverge is not None:
        errors += _model_verdicts(expect, theorems)
    return errors


def _model_verdicts(expect: Expect, theorems) -> List[str]:
    errors = []
    checked = {t["name"]: t["models"] for t in theorems if t["models"]}
    if set(checked) != set(expect.diverge):
        errors.append(f"model-checked blocks {sorted(checked)}, expected {sorted(expect.diverge)}")
    for name, per_model in checked.items():
        if set(per_model) != {expect.model}:
            errors.append(f"{name}: models {sorted(per_model)}, expected {expect.model}")
            continue
        rep = per_model[expect.model]
        cls = expect.blocks.get(name, ("", ""))[1]
        must_fail = expect.model in expect.diverge.get(name, ())
        may_fail = must_fail or (cls == "EUCLIDEAN_ONLY" and expect.model != "euclidean")
        if rep["trials_run"] < 1:
            errors.append(f"{name} [{expect.model}]: no trial evaluated")
        if rep["failures"] and not may_fail:
            errors.append(f"{name} [{expect.model}]: {rep['failures']} failures where none is permitted")
        if must_fail and not rep["failures"]:
            errors.append(f"{name} [{expect.model}]: expected divergence, none found")
    return errors


def _text_lines(stdout: str):
    """Split `check`/`deps` text output into block verdict lines, step
    diagnostics and cycle lines."""
    verdicts, steps, cycles = {}, [], []
    in_cycles = False
    for line in stdout.splitlines():
        if line == "cycles:":
            in_cycles = True
        elif in_cycles:
            cycles.append(frozenset(line.split()))
        elif line.startswith("  step "):
            steps.append(line[len("  step "):])
        elif not line.startswith(" ") and ": " in line:
            name, verdict = line.split(": ", 1)
            verdicts[name] = verdict
    return verdicts, steps, cycles


def verdict_errors(request: Request, exit_code: int, stdout: str) -> List[str]:
    expect = request.expect
    errors = []
    if exit_code != expect.exit_code:
        errors.append(f"exit code {exit_code}, expected {expect.exit_code}")
    if request.kind in ("check_json", "model_json"):
        return errors + _json_report(expect, stdout)
    verdicts, steps, cycles = _text_lines(stdout)
    if request.kind == "check_text":
        got = {n: (v, expect.blocks.get(n, ("", ""))[1]) for n, v in verdicts.items()}
        errors += _compare_blocks(got, expect.blocks, "check")
        if len(steps) != 1 or not steps[0].startswith(f"{expect.failed_step} (line "):
            errors.append(f"failure expected at step {expect.failed_step} alone, got {steps[:2]}")
    elif request.kind == "deps":
        got = {n: (expect.blocks.get(n, ("", ""))[0], v) for n, v in verdicts.items()}
        errors += _compare_blocks(got, expect.blocks, "deps")
        if sorted(map(sorted, cycles)) != sorted(map(sorted, expect.cycles)):
            errors.append(f"deps printed {len(cycles)} cycles, expected {len(expect.cycles)}")
    else:
        errors.append(f"unknown request kind {request.kind}")
    return errors
