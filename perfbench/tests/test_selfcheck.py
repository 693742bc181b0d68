"""Fast self-check of the benchmark: every workload at a tiny size, the
shape of what a run reports, and an oracle that notices a wrong verdict.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from oracle import verdict_errors  # noqa: E402

TINY = {"sizes": (20, 40), "defect_size": 40, "copies": (1, 2), "trials": 3}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    record = run.run_benchmark(workload, 5, 0.2, trace, ROOT, min_requests=12, **TINY)
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] >= 1
    names = [m["name"] for m in _spec()["per_layer" if trace else "end_to_end"]]
    assert sorted(record["metrics"]) == sorted(names)
    for name, m in record["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        assert all(record["metrics"][n]["value"] > 0 for n in names)
        assert all(len(o["sha256"]) == 64 for o in record["outputs"])


def test_spec_matches_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def _loop_over(requests, tmp_path):
    loop = run.Loop(tmp_path)
    for req in requests:
        loop.call(req)
    return loop


def test_oracle_catches_flipped_verdicts(tmp_path):
    requests_for_pass = run.build_workload("long_proofs", 3, tmp_path, **{k: TINY[k] for k in ("sizes", "defect_size")})
    requests = requests_for_pass(0)
    assert _loop_over(requests, tmp_path).failed == 0

    flipped = []
    for req in requests:
        # status for check, classification for deps
        blocks = {n: ("failed" if s == "ok" else "ok", "CYCLIC") for n, (s, c) in req.expect.blocks.items()}
        flipped.append(dataclasses.replace(req, expect=dataclasses.replace(req.expect, blocks=blocks)))
    loop = _loop_over(flipped, tmp_path)
    assert loop.failed == loop.attempted == len(requests)


def test_oracle_catches_wrong_step_cycles_and_divergence(tmp_path):
    requests = run.build_workload("long_proofs", 4, tmp_path, **{k: TINY[k] for k in ("sizes", "defect_size")})(0)
    text = next(r for r in requests if r.kind == "check_text")
    moved = dataclasses.replace(text, expect=dataclasses.replace(text.expect, failed_step="e1"))
    assert _loop_over([moved], tmp_path).failed == 1

    deps = next(r for r in run.build_workload("library", 4, tmp_path, copies=(1,))(0) if r.kind == "deps")
    assert _loop_over([deps], tmp_path).failed == 0
    fewer = dataclasses.replace(deps, expect=dataclasses.replace(deps.expect, cycles=deps.expect.cycles[:1]))
    assert _loop_over([fewer], tmp_path).failed == 1

    model = run.build_workload("corpus_model", 4, tmp_path, trials=3)(0)[0]  # euclidean
    diverge = dict(model.expect.diverge, angle_sum_pi=("euclidean",))
    wrong = dataclasses.replace(model, expect=dataclasses.replace(model.expect, diverge=diverge))
    assert _loop_over([model], tmp_path).failed == 0
    assert any("expected divergence" in e for e in verdict_errors(wrong, 0, _output(model)))


def _output(req):
    from ponscheck import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(req.argv))
    return buf.getvalue()


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "library", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
