"""Per-layer tracing of ponscheck from outside the package.

`Tracer.install()` replaces public functions with wrappers at the name
their caller looks up (a module global such as `ponscheck.cli.parse`, or a
class attribute such as `LineTable.record_between`); `uninstall()` puts
the originals back.  Layer calls become spans (name, start, end, parent,
request id) kept in memory; the geometry primitives, which run about a
million times per pass, are only counted.  `layer_metrics()` turns the
recorded spans and counters into the per-layer numbers of BENCHMARK.json.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

from workloads import MODEL_NAMES, SHAPES, SIZES


class Tracer:
    """Spans and counters of one traced phase of a run."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, request, tag]
        self.stack: List[int] = []
        self.request = -1
        self.tag = ""
        self.counts: Counter = Counter()
        self.model_trials: Counter = Counter()  # model -> (requested trials)
        self.model_trials_run: Counter = Counter()
        self.graph_sizes: List[tuple] = []
        self.side_conditions: Counter = Counter()
        self.kernel_steps = 0
        self.parse_bytes = 0
        self.blocks = 0
        self.sample_points = 0  # statement points over all sample calls
        self._patches: List[tuple] = []

    # -- spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.request, self.tag])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def spanned(self, name_of: Callable, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span named name_of(args); after(result, args) may
        read what the call returned."""

        def wrapper(*args, **kwargs):
            idx = self._open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def _patch(self, owner, attr: str, wrapper_for: Callable) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def install(self) -> None:
        from ponscheck import cli, kernel, models
        from ponscheck.depgraph import Graph
        from ponscheck.geometry import EuclideanModel, PoincareModel, SphereModel
        from ponscheck.rules import RuleSchema
        from ponscheck.terms import LineTable

        fixed = lambda name: (lambda args: name)  # noqa: E731
        per_model = lambda name: (lambda args: f"{name}/{args[0].name}")  # noqa: E731

        def after_parse(result, args):
            self.parse_bytes += len(args[0].encode())

        def after_elaborate(result, args):
            self.blocks += len(result)

        def after_check(report, args):
            self.kernel_steps += len(report.steps)
            for sc in report.side_conditions:
                self.side_conditions[sc.outcome] += 1

        def after_graph(graph, args):
            self.graph_sizes.append((len(graph.nodes), len(graph.all_edges())))

        def after_model(report, args):
            self.model_trials[report.model] += report.trials
            self.model_trials_run[report.model] += report.trials_run

        def sample_wrapper(fn):
            inner = self.spanned(per_model("models.sample"), fn)

            def wrapper(model, statement, *args, **kwargs):
                self.sample_points += len(statement.points)
                return inner(model, statement, *args, **kwargs)

            return wrapper

        def solve_wrapper(fn):
            inner = self.spanned(per_model("models.solve"), fn)

            def wrapper(*args, **kwargs):
                before = self.counts["exp"]
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.counts["exp_in_solve"] += self.counts["exp"] - before

            return wrapper

        self._patch(cli, "main", lambda fn: self.spanned(fixed("cli.main"), fn))
        self._patch(cli, "parse", lambda fn: self.spanned(fixed("script.parse"), fn, after_parse))
        self._patch(cli, "parse_conjecture", lambda fn: self.spanned(fixed("script.parse"), fn, after_parse))
        self._patch(cli, "collect_statements", lambda fn: self.spanned(fixed("elaborate"), fn))
        self._patch(cli, "elaborate_script", lambda fn: self.spanned(fixed("elaborate"), fn, after_elaborate))
        self._patch(cli, "check_proof", lambda fn: self.spanned(fixed("kernel.check"), fn, after_check))
        self._patch(cli, "graph_from_blocks", lambda fn: self.spanned(fixed("depgraph.build"), fn, after_graph))
        self._patch(cli, "model_check", lambda fn: self.spanned(per_model("models.check"), fn, after_model))
        self._patch(cli, "model_check_conjecture", lambda fn: self.spanned(per_model("models.check"), fn, after_model))
        self._patch(models, "sample_instance", sample_wrapper)
        self._patch(models, "eval_fact", lambda fn: self.spanned(per_model("models.eval"), fn))
        self._patch(models, "realize_construction", lambda fn: self.spanned(per_model("models.replay"), fn))
        self._patch(models, "solve_introduced_point", solve_wrapper)
        self._patch(kernel, "canon_fact", lambda fn: self.counted("canon_fact", fn))
        self._patch(LineTable, "record_between", lambda fn: self.spanned(fixed("terms.record_between"), fn))
        self._patch(Graph, "classify", lambda fn: self.spanned(fixed("depgraph.classify"), fn))
        self._patch(Graph, "detect_cycles", lambda fn: self.counted("detect_cycles", fn))
        for method in ("instantiate_premises", "instantiate_conclusions", "instantiate_side_conditions"):
            self._patch(RuleSchema, method, lambda fn: self.counted("instantiate", fn))
        for cls in (EuclideanModel, PoincareModel, SphereModel):
            for method in ("dist", "exp", "random_point"):
                self._patch(cls, method, lambda fn, k=f"{cls.name}.{method}", m=method: self._geometry_counter(k, m, fn))

    def _geometry_counter(self, key: str, method: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            counts[method] += 1
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, request, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, request, tag]) + "\n")

    # -- metrics

    def self_times(self) -> Dict[str, float]:
        """Inclusive duration of each span minus that of its direct
        children, summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def scaling(self) -> Dict[str, float]:
        """Median per-request kernel and parse time for each long_proofs
        shape and size (clean scripts only)."""
        per: Dict[tuple, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, request, tag in self.spans:
            if name in ("kernel.check", "script.parse") and tag and not tag.endswith(".bad"):
                per[(name, tag)][request] += end - start
        out = {}
        for shape in SHAPES:
            for size in SIZES:
                for name, metric in (("kernel.check", "kernel_s"), ("script.parse", "parse_s")):
                    values = list(per.get((name, f"{shape}.n{size}"), {}).values())
                    out[f"scaling.{shape}.{metric}.n{size}"] = statistics.median(values) if values else 0.0
        growth = [
            out[f"scaling.{s}.kernel_s.n{SIZES[-1]}"] / out[f"scaling.{s}.kernel_s.n{SIZES[-2]}"]
            for s in SHAPES
            if out[f"scaling.{s}.kernel_s.n{SIZES[-2]}"] > 0
        ]
        out["kernel.growth_per_doubling"] = max(growth) if growth else 0.0
        return out

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        """Per-pass layer metrics; a layer the workload never reaches
        reports 0."""
        st = self.self_times()
        tot = self.totals()
        calls = self.calls()
        c = self.counts

        def by_prefix(table, prefix):
            return sum(v for k, v in table.items() if k.split("/")[0] == prefix)

        def ratio(a, b):
            return a / b if b else 0.0

        m: Dict[str, float] = {}
        solve_calls = by_prefix(calls, "models.solve")
        sample_calls = by_prefix(calls, "models.sample")
        m["models.solve_s"] = by_prefix(tot, "models.solve") / passes
        m["models.solve_calls"] = solve_calls / passes
        m["models.exp_per_solve"] = ratio(c["exp_in_solve"], solve_calls)
        m["models.sample_s"] = by_prefix(st, "models.sample") / passes
        m["models.sample_attempts_per_trial"] = ratio(c["random_point"], self.sample_points)
        m["models.eval_s"] = by_prefix(tot, "models.eval") / passes
        m["models.eval_calls"] = by_prefix(calls, "models.eval") / passes
        m["models.replay_s"] = by_prefix(tot, "models.replay") / passes
        m["models.check_self_s"] = by_prefix(st, "models.check") / passes
        for model in MODEL_NAMES:
            m[f"models.{model}.solve_s"] = tot.get(f"models.solve/{model}", 0.0) / passes
            m[f"models.{model}.sample_s"] = st.get(f"models.sample/{model}", 0.0) / passes
            m[f"models.{model}.eval_s"] = tot.get(f"models.eval/{model}", 0.0) / passes
            m[f"models.{model}.evaluated_ratio"] = ratio(self.model_trials_run[model], self.model_trials[model])
        for model in MODEL_NAMES:
            trials = self.model_trials[model]
            m[f"geometry.{model}.dist_per_trial"] = ratio(c[f"{model}.dist"], trials)
            m[f"geometry.{model}.exp_per_trial"] = ratio(c[f"{model}.exp"], trials)
        parse_s = tot.get("script.parse", 0.0)
        m["script.parse_s"] = parse_s / passes
        m["script.bytes_per_s"] = ratio(self.parse_bytes, parse_s)
        m["elaborate.s"] = tot.get("elaborate", 0.0) / passes
        m["elaborate.blocks"] = self.blocks / passes
        kernel_s = tot.get("kernel.check", 0.0)
        m["kernel.check_s"] = st.get("kernel.check", 0.0) / passes
        m["kernel.steps_per_s"] = ratio(self.kernel_steps, kernel_s)
        for outcome in ("derived", "assumed", "failed"):
            m[f"kernel.side_conditions.{outcome}"] = self.side_conditions[outcome] / passes
        m["terms.record_between_s"] = tot.get("terms.record_between", 0.0) / passes
        m["terms.record_between_calls"] = calls["terms.record_between"] / passes
        m["terms.canon_fact_calls"] = c["canon_fact"] / passes
        m["rules.instantiate_calls"] = c["instantiate"] / passes
        m["depgraph.build_s"] = tot.get("depgraph.build", 0.0) / passes
        m["depgraph.classify_s"] = tot.get("depgraph.classify", 0.0) / passes
        m["depgraph.classify_calls"] = calls["depgraph.classify"] / passes
        m["depgraph.detect_cycles_calls"] = c["detect_cycles"] / passes
        m["depgraph.nodes"] = max((n for n, _ in self.graph_sizes), default=0)
        m["depgraph.edges"] = max((e for _, e in self.graph_sizes), default=0)
        m["cli.self_s"] = st.get("cli.main", 0.0) / passes
        m.update(self.scaling())
        return m
