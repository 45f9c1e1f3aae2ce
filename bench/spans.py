"""Spans for the traced run, recorded from outside the program.

`install` replaces program functions with wrappers under every name a
caller looks them up by (for example `gpforge.meier.bs_equal`, bound by
`from .rewriting import bs_equal`, and `gpforge.homology.smith_normal_form`).
Each wrapper records a span (id, parent span, name, start, end, job id)
and a few counts read off the arguments and the return value.  Spans
stay in memory and are written out when the pass ends.

A layer's busy time is self time: its spans' durations minus the time
their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> the program functions it covers, as (module, attribute);
# "Class.method" patches the class.
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli": (("gpforge.cli", "main"),),
    "words.substitute": (("gpforge.words", "substitute"),),
    "presentations.tietze": (("gpforge.presentations", "tietze_simplify"),),
    "presentations.io": (("gpforge.presentations", "parse"), ("gpforge.presentations", "serialize")),
    "rewriting.britton": (("gpforge.rewriting", "britton_normal_form"),),
    "rewriting.equal": (("gpforge.rewriting", "bs_equal"),),
    "rewriting.quotient": (("gpforge.rewriting", "finite_quotient_search"),),
    "rewriting.revalidate": (("gpforge.rewriting", "TrivialityCertificate.revalidate"),),
    "meier.probe": (("gpforge.meier", "double_coset_probe"),),
    "topology.complex": (("gpforge.topology", "presentation_complex"),),
    "topology.subdivide": (("gpforge.topology", "barycentric_subdivide"),),
    "topology.simplicial": (("gpforge.topology", "triangulate"), ("gpforge.topology", "delta_to_simplicial")),
    "topology.serialize": (("gpforge.topology", "serialize_simplicial"), ("gpforge.topology", "parse_simplicial")),
    "topology.chain": (("gpforge.topology", "simplicial_chain_complex"),),
    "homology.check": (("gpforge.homology", "ChainComplexData.check_composition"),),
    "homology.snf_sparse": (("gpforge.homology", "invariant_factors"),),
    "homology.snf_dense": (("gpforge.homology", "smith_normal_form"),),
    "homology.abelianization": (("gpforge.homology", "abelianization"),),
    "combinators.build": tuple(
        ("gpforge.combinators", name)
        for name in (
            "atom", "free_product", "direct_product", "amalgamated_product",
            "hnn_extension", "standard_mitosis", "mu_stage", "bac_hnn",
        )
    ),
    "reductions.witness": tuple(
        ("gpforge.reductions", name) for name in ("lambda_w", "gamma_w", "witness_w", "pi_w", "delta_w")
    ),
    "reductions.oracle": (("gpforge.reductions", "WordProblemSource.is_trivial"),),
    "inference.derive": (("gpforge.inference", "derive"),),
    "inference.query": tuple(
        ("gpforge.inference", name) for name in ("query", "check_consistency", "replay_certificate")
    ),
    "sexpr.parse": (("gpforge.sexpr", "parse_expr"),),
    "sexpr.serialize": (("gpforge.sexpr", "serialize_expr"),),
}

GPFORGE_MODULES = (
    "gpforge", "gpforge.words", "gpforge.presentations", "gpforge.combinators",
    "gpforge.rewriting", "gpforge.homology", "gpforge.topology", "gpforge.meier",
    "gpforge.reductions", "gpforge.inference", "gpforge.sexpr", "gpforge.cli",
)

# Counts read at the wrapper: span name -> f(args, result) -> {key: n}.
COUNTERS: Dict[str, Callable[[tuple, object], Dict[str, int]]] = {
    "rewriting.britton": lambda a, r: {"runs_in": len(a[1].letters)},
    "meier.probe": lambda a, r: {"candidates": len(r), "in_f": sum(s == "in-F" for _, s in r)},
    "rewriting.quotient": lambda a, r: {"homs": len(r) if isinstance(r, list) else int(r is not None)},
    "topology.subdivide": lambda a, r: {"triangles": len(r.triangles)},
    "topology.chain": lambda a, r: {"cells": r.n0 + r.n1 + r.n2},
    "homology.snf_sparse": lambda a, r: {"rows": len(a[0]), "factors": len(r)},
    "homology.snf_dense": lambda a, r: {"cells": a[0].rows * a[0].cols, "factors": len(r.invariant_factors)},
    "presentations.tietze": lambda a, r: {"gens_removed": len(a[0].alphabet) - len(r.alphabet)},
    "combinators.build": lambda a, r: {"relators": len(r.realized.relators)},
    "inference.derive": lambda a, r: {"facts": len(r.certificates)},
}

# The per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("rewriting.britton.calls", "count"),
    ("rewriting.britton.busy_s", "s"),
    ("rewriting.britton.runs_in", "count"),
    ("meier.probe.busy_s", "s"),
    ("meier.probe.candidates", "count"),
    ("meier.probe.comparisons", "count"),
    ("meier.probe.in_f", "count"),
    ("meier.probe.in_f_per_comparison", "ratio"),
    ("words.substitute.calls", "count"),
    ("words.substitute.busy_s", "s"),
    ("rewriting.quotient.calls", "count"),
    ("rewriting.quotient.busy_s", "s"),
    ("rewriting.quotient.homs", "count"),
    ("rewriting.revalidate.busy_s", "s"),
    ("topology.complex.busy_s", "s"),
    ("topology.subdivide.busy_s", "s"),
    ("topology.subdivide.triangles", "count"),
    ("topology.simplicial.busy_s", "s"),
    ("topology.serialize.busy_s", "s"),
    ("topology.chain.busy_s", "s"),
    ("topology.chain.cells", "count"),
    ("homology.check.busy_s", "s"),
    ("homology.snf_sparse.calls", "count"),
    ("homology.snf_sparse.busy_s", "s"),
    ("homology.snf_sparse.rows", "count"),
    ("homology.snf_sparse.unit_factors", "count"),
    ("homology.snf_dense.calls", "count"),
    ("homology.snf_dense.busy_s", "s"),
    ("homology.snf_dense.cells", "count"),
    ("homology.abelianization.calls", "count"),
    ("homology.abelianization.busy_s", "s"),
    ("presentations.tietze.calls", "count"),
    ("presentations.tietze.busy_s", "s"),
    ("presentations.tietze.gens_removed", "count"),
    ("presentations.io.busy_s", "s"),
    ("combinators.build.calls", "count"),
    ("combinators.build.busy_s", "s"),
    ("combinators.build.relators", "count"),
    ("reductions.witness.calls", "count"),
    ("reductions.witness.busy_s", "s"),
    ("reductions.oracle.calls", "count"),
    ("inference.derive.calls", "count"),
    ("inference.derive.busy_s", "s"),
    ("inference.derive.facts", "count"),
    ("inference.query.busy_s", "s"),
    ("sexpr.parse.busy_s", "s"),
    ("sexpr.serialize.busy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# (span id, parent span id, name, start, end, job id, counts or None)
Span = Tuple[int, int, str, float, float, str, Optional[Dict[str, int]]]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack = [0]
        self._next = 1
        self._job: Optional[str] = None

    def _record(self, fn, name: str, counter, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        counts, end = None, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            if counter is not None:
                counts = counter(args, result)
            return result
        finally:
            if end is None:  # fn raised
                end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self._job, counts))

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            return self._record(fn, name, counter, args, kwargs)

        return wrapper

    def run_job(self, job_id: str, fn: Callable[[], object]):
        self._job = job_id
        try:
            return self._record(fn, "job", None, (), {})
        finally:
            self._job = None

    def write(self, path: str) -> None:
        """One JSON array per span: id, parent, name, start, duration, job."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, job, _ in sorted(self.spans):
                fh.write(json.dumps([sid, parent, name, round(start - origin, 9), round(end - start, 9), job]))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS under each module name bound to it."""
    wrappers = {}
    for name, targets in SPANS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, tracer.wrap(cls.__dict__[method], name))
            else:
                fn = getattr(module, attr)
                wrappers[fn] = tracer.wrap(fn, name)
    for module_name in GPFORGE_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                setattr(module, attr, wrappers[value])


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Totals per layer over one pass; `trace.overhead_s` is left to the
    caller, which also has the untraced passes."""
    duration = {s[0]: s[4] - s[3] for s in spans}
    names = {s[0]: s[2] for s in spans}
    covered: Dict[int, float] = defaultdict(float)
    for sid, parent, *_ in spans:
        covered[parent] += duration[sid]
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    comparisons = dense_factors_in_sparse = 0
    for sid, parent, name, _, _, _, extra in spans:
        calls[name] += 1
        busy[name] += duration[sid] - covered[sid]
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value
        parent_name = names.get(parent)
        if name == "rewriting.equal" and parent_name == "meier.probe":
            comparisons += 1
        if name == "homology.snf_dense" and parent_name == "homology.snf_sparse" and extra:
            dense_factors_in_sparse += extra["factors"]
    out: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer]
        elif stat in ("busy_s", "self_s"):
            out[metric] = busy[layer]
        else:
            out[metric] = counts.get(metric, 0)
    out["meier.probe.comparisons"] = comparisons
    out["meier.probe.in_f_per_comparison"] = counts["meier.probe.in_f"] / comparisons if comparisons else 0.0
    out["homology.snf_sparse.unit_factors"] = counts["homology.snf_sparse.factors"] - dense_factors_in_sparse
    return out
