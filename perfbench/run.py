"""ponscheck benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload corpus_model --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is the
checkout's own `src/ponscheck`, called in-process through
`ponscheck.cli.main(argv)` one request at a time, with stdout captured.
Requests repeat in passes until `--seconds` have gone by and at least
MIN_REQUESTS were made; every verdict is checked against a known answer.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run (see tracing.py).  Timings are given in reference units: a
request's time over that of a fixed pure-Python loop timed just before
and just after it.
Details (raw seconds, the reference timings, a sha256 per output, and
for traced runs the spans) go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from oracle import verdict_errors  # noqa: E402

OUT_DIR = ".perfbench_out"
# Set-up probes: a few before the loop, then one every SETUP_EVERY of the
# run, so the median samples the machine at several moments.
SETUP_FIRST = 3
SETUP_EVERY = 1 / 6
SETUP_CODE = (
    "import ponscheck.cli\n"
    "from ponscheck.corpus import ENTRIES, load_text\n"
    "for e in ENTRIES:\n"
    "    load_text(e.filename)\n"
)
# The tail percentile is the highest of these with at least ten samples
# beyond it; MIN_REQUESTS keeps that at p90 on every workload.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_REQUESTS = 100
REF_ITERS = 3000


def reference_loop() -> float:
    """Fixed pure-Python math and `random` work, like the numeric layer."""
    rng = Random(1602)
    acc = 0.0
    for _ in range(REF_ITERS):
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(0.1, 2.0)
        acc += math.acos(x) + math.hypot(x, y) + math.atan2(y, x) + math.sin(x) * math.cosh(y) + math.sqrt(y)
    return acc


REF_RESULT = reference_loop()


def percentile(values: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    return max(p for p in PERCENTILES if n * (1 - p / 100.0) >= 10 or p == PERCENTILES[0])


# ---------------------------------------------------------------------------
# set-up time


class SetupProbe:
    """Times a fresh interpreter importing ponscheck.cli and loading the
    corpus.  The first probe is an untimed warm-up, so byte-compilation
    is not counted."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.times: List[float] = []
        self._probe()

    def _probe(self) -> float:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        return elapsed

    def __call__(self) -> None:
        self.times.append(self._probe())


# ---------------------------------------------------------------------------
# workloads


def build_workload(name: str, seed: int, work: Path, sizes=W.SIZES, defect_size=W.DEFECT_SIZE,
                   copies=W.LIBRARY_COPIES, trials=W.MODEL_TRIALS) -> Callable[[int], List[W.Request]]:
    """Write the workload's input files under `work`; return the request
    list of pass i.  The size arguments exist for the self-check."""
    from ponscheck.corpus import ENTRIES, PROOF_FILENAMES, load_text

    work.mkdir(parents=True, exist_ok=True)
    if name == "corpus_model":
        return lambda i: W.corpus_model_requests(seed, i, ENTRIES, trials)
    if name == "long_proofs":
        scripts = W.long_proof_scripts(seed, sizes, defect_size)
        for _, stem, _, text, _ in scripts:
            (work / f"{stem}.proof").write_text(text, encoding="utf-8")
        requests = W.long_proof_requests(scripts, work)
        return lambda i: requests
    if name == "library":
        texts = {f: load_text(f) for f in PROOF_FILENAMES}
        requests, files = W.library_requests(seed, texts, ENTRIES, work, copies)
        for path, text in files.items():
            Path(path).write_text(text, encoding="utf-8")
        return lambda i: requests
    raise ValueError(f"unknown workload {name}")


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Closed-loop client state for one phase of a run."""

    def __init__(self, work: Path, tracer=None, probe: Optional[Callable[[], None]] = None) -> None:
        self.work = str(work)
        self.tracer = tracer
        self.probe = probe  # called between requests, untimed
        self.samples: List[float] = []  # seconds per request
        self.classes: List[str] = []  # each request's arguments, as one string
        self.ref: List[float] = []  # reference loop seconds, before each request and after the last
        self.pass_walls: List[float] = []  # summed request seconds per pass
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}
        self.outputs: List[dict] = []
        self.digest_changes = 0

    def time_reference(self) -> None:
        t = perf_counter()
        acc = reference_loop()
        self.ref.append(perf_counter() - t)
        if acc != REF_RESULT:
            raise RuntimeError("reference loop gave a different result")

    def call(self, req: W.Request) -> float:
        from ponscheck import cli

        self.time_reference()
        if self.tracer is not None:
            self.tracer.request = len(self.samples)
            self.tracer.tag = req.tag
        out, err = io.StringIO(), io.StringIO()
        problems: List[str] = []
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(req.argv))
                except SystemExit as exc:
                    code = exc.code
        except Exception:
            code = None
            problems.append("raised: " + traceback.format_exc(limit=3).splitlines()[-1])
        elapsed = perf_counter() - t0
        args = " ".join(req.argv)
        self.samples.append(elapsed)
        self.classes.append(args)
        stdout = out.getvalue()
        if not problems:
            problems = verdict_errors(req, code, stdout)
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{args}: {'; '.join(problems[:3])}")
        key = args.replace(self.work, "<work>")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if key not in self.digests:
            self.digests[key] = digest
            self.outputs.append({"argv": key, "exit": code, "sha256": digest})
        elif self.digests[key] != digest:
            self.digest_changes += 1
        return elapsed

    def run(self, requests_for_pass: Callable[[int], List[W.Request]], seconds: float,
            min_requests: int = 1, max_passes: Optional[int] = None) -> None:
        """Whole passes while another one fits in `seconds`, and until at
        least `min_requests` requests were made."""
        start = last_probe = perf_counter()
        i = 0
        while True:
            pass_start = perf_counter()
            wall = 0.0
            for req in requests_for_pass(i):
                if self.probe is not None and perf_counter() - last_probe >= seconds * SETUP_EVERY:
                    self.probe()
                    last_probe = perf_counter()
                wall += self.call(req)
            self.pass_walls.append(wall)
            i += 1
            now = perf_counter()
            if max_passes is not None and i >= max_passes:
                break
            fits = now - start + (now - pass_start) <= seconds
            if not fits and len(self.samples) >= min_requests:
                break
        self.time_reference()

    def in_reference_units(self) -> List[float]:
        """Each request's time over the mean of the reference loops timed
        just before and just after it, which cancels machine-speed changes
        slower than a request."""
        return [t * 2.0 / (self.ref[i] + self.ref[i + 1]) for i, t in enumerate(self.samples)]

    def smoothed(self, values: Sequence[float]) -> List[float]:
        """Each request's value replaced by the median over every request
        of the run with the same arguments.  Workloads that repeat their
        inputs each pass get one steady figure per input; corpus_model
        draws fresh seeds each pass, so its values stay as measured."""
        by_class: Dict[str, List[float]] = {}
        for c, v in zip(self.classes, values):
            by_class.setdefault(c, []).append(v)
        median = {c: statistics.median(vs) for c, vs in by_class.items()}
        return [median[c] for c in self.classes]

    @property
    def attempted(self) -> int:
        return len(self.samples)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(loop: Loop, setup: List[float]) -> Dict[str, dict]:
    """Pass wall time, median and tail time to verdict, each in reference
    units (with raw seconds beside them), set-up time and peak memory.

    The pass wall time sums each distinct request's median over the run;
    the percentiles are over every request as measured."""
    p = tail_percentile(loop.attempted)
    passes = len(loop.pass_walls)
    units = loop.in_reference_units()
    raw = {"bench.ref_ms": statistics.median(loop.ref) * 1e3, "bench.samples": loop.attempted, "bench.passes": passes}
    return {
        "setup_s": {"value": statistics.median(setup), "bench.runs": setup},
        "wall_ref": {"value": sum(loop.smoothed(units)) / passes,
                     "bench.wall_s": sum(loop.smoothed(loop.samples)) / passes, **raw},
        "verdict_p50_ref": {"value": statistics.median(units), "bench.wall_s": statistics.median(loop.samples), **raw},
        "verdict_tail_ref": {"value": percentile(units, p), "bench.wall_s": percentile(loop.samples, p),
                             "bench.percentile": p, **raw},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
    }


def reference_summary(loop: Loop) -> dict:
    q = statistics.quantiles(loop.ref, n=4)
    return {"ref_ms_median": statistics.median(loop.ref) * 1e3, "ref_ms_quartiles": [q[0] * 1e3, q[2] * 1e3],
            "ref_ms_min": min(loop.ref) * 1e3, "ref_ms_max": max(loop.ref) * 1e3, "samples": len(loop.ref)}


# ---------------------------------------------------------------------------
# entry point


def load_spec(root: Path) -> Dict[str, Dict[str, dict]]:
    """BENCHMARK.json's metric lists, by list name and metric name."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m for m in spec[key]} for key in ("end_to_end", "per_layer")}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                  min_requests: int = MIN_REQUESTS, **sizes) -> dict:
    """One benchmark run; returns the result record.  Its metrics are
    exactly the BENCHMARK.json list the run reports (end_to_end or
    per_layer), each with the unit given there."""
    spec = load_spec(root)["per_layer" if trace else "end_to_end"]
    out_dir = root / OUT_DIR
    work = out_dir / f"work-{os.getpid()}"
    try:
        requests_for_pass = build_workload(workload, seed, work, **sizes)
        if not trace:
            setup = SetupProbe(root)
            for _ in range(SETUP_FIRST):
                setup()
            loop = Loop(work, probe=setup)
            loop.run(requests_for_pass, seconds, min_requests)
            metrics = end_to_end(loop, setup.times)
            loops = [loop]
        else:
            from tracing import Tracer

            plain = Loop(work)
            plain.run(requests_for_pass, seconds / 2)
            tracer = Tracer()
            traced = Loop(work, tracer)
            tracer.install()
            try:
                traced.run(requests_for_pass, seconds / 2, max_passes=len(plain.pass_walls))
            finally:
                tracer.uninstall()
            passes = len(traced.pass_walls)
            metrics = {k: {"value": v} for k, v in tracer.layer_metrics(passes).items()}
            metrics["bench.trace_overhead_ratio"] = {
                "value": statistics.median(traced.pass_walls) / statistics.median(plain.pass_walls),
                "bench.traced_passes": passes,
            }
            spans_path = out_dir / f"{workload}-seed{seed}-spans.jsonl.gz"
            tracer.write_spans(spans_path)
            loops = [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(spec):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(spec))} do not match BENCHMARK.json")
    for name, m in metrics.items():
        m["unit"] = spec[name]["unit"]
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "errors": [e for lp in loops for e in lp.errors][:20],
        "metrics": metrics,
        "reference": reference_summary(loops[0]),
        "outputs": loops[0].outputs,
        "requests": [[c, t] for c, t in zip(loops[0].classes, loops[0].samples)],
        "reference_s": loops[0].ref,
        "digest_changes": sum(lp.digest_changes for lp in loops),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be a positive number")

    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ponscheck" / "cli.py").is_file():
        print(f"perfbench: no ponscheck source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ponscheck

    if not Path(ponscheck.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported ponscheck from {ponscheck.__file__}, not from {src}", file=sys.stderr)
        return 2

    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    results_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    metrics = record["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  requests {record['attempted']}")
    print(f"  error_ratio {record['error_ratio']:.6g} ratio  failed {record['failed']}")
    for name, m in sorted(metrics.items()):
        extra = "  ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in m.items() if k.startswith("bench.") and not isinstance(v, list))
        print(f"  {name} {m['value']:.6g} {m['unit']}  {extra}".rstrip())
    print(f"  reference loop {record['reference']['ref_ms_median']:.4g} ms median over {record['reference']['samples']}")
    print(f"  outputs {len(record['outputs'])} distinct, {record['digest_changes']} changed between passes")
    for line in record["errors"]:
        print(f"  error: {line}")
    print(f"  details in {results_path.relative_to(root)}")

    final = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(final))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, one after another; exits
    with the first non-zero code."""
    code = 0
    for name in W.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv])
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
