"""Span tracing of irrmeasure's public functions, from outside the package.

`Tracer.install()` replaces each probed function with a wrapper in every
irrmeasure module that binds it (for example both `irrmeasure.cli.sweep`
and `irrmeasure.bound.sweep`), and each probed method on its class, so
calls are traced where the caller looks them up. A span is (name, start,
end, parent, item); spans live in flat arrays until the run writes them
out. `uninstall()` restores the original objects, so untraced items in
the same process pay nothing.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("specfile", "surd", "cf", "stepfunc", "sweep", "bound", "screening", "cli")


def _count_terms(counts, args, kwargs, result):
    counts["cf.convergents_terms"] += len(result)


def _count_breakpoints(counts, args, kwargs, result):
    counts["stepfunc.breakpoints"] += len(result.breakpoints)


def _count_sweep(counts, args, kwargs, result):
    counts["sweep.events"] += len(result.events)
    counts["sweep.k_hat"] += result.k_hat


def _count_verified_run(counts, args, kwargs, result):
    counts["bound.k"] += result.trace.k
    counts["bound.restricted_views"] += len(result.trace.restricted)
    counts["bound.doublings"] += result.doublings


def _count_rigidity(counts, args, kwargs, result):
    counts["screening.rigidity_records"] += len(result)
    counts["screening.rigidity_past_denominator"] += sum(
        1 for r in result if r.failed_hypothesis != "q_{nu+2} = r_{mu+d}")


def _count_reversal(counts, args, kwargs, result):
    counts["screening.reversal_sites"] += len(result)


#: (home module, attribute or Class.method, span name, counter hook);
#: a span name's first component is its layer
PROBES = (
    ("specfile", "parse_spec", "specfile.parse", None),
    ("surd", "squarefree_decompose", "surd.certify", None),
    ("surd", "QuadraticSurd.compare", "surd.compare", None),
    ("cf", "surd_to_cf", "cf.surd_to_cf", None),
    ("cf", "convergents", "cf.convergents", _count_terms),
    ("cf", "ErrorTerm.__init__", "cf.error_term_init", None),
    ("cf", "ErrorTerm.exact_value", "cf.exact_value", None),
    ("cf", "compare_errors", "cf.compare", None),
    ("stepfunc", "build_trajectory", "stepfunc.build_trajectory", _count_breakpoints),
    ("sweep", "TupleContext.__init__", "sweep.context", None),
    ("sweep", "sweep", "sweep.sweep", _count_sweep),
    ("sweep", "sigma_at", "sweep.sigma_at", None),
    ("bound", "verify_with_retries", "bound.verify_with_retries", _count_verified_run),
    ("bound", "build_proof_trace", "bound.proof_trace", None),
    ("bound", "render_proof_trace", "bound.render", None),
    ("screening", "scan_coincidences", "screening.scan_coincidences", None),
    ("screening", "rigidity_scan", "screening.rigidity_scan", _count_rigidity),
    ("screening", "check_reversal_pattern", "screening.reversal", _count_reversal),
)

#: per-layer metric -> source: ("time", span), ("calls", span) or
#: ("count", counter), each averaged per traced item, or ("share", layer):
#: the layer's self time over cli.main time. Units are in BENCHMARK.json.
PER_LAYER = {
    "bound.proof_trace_s": ("time", "bound.proof_trace"),
    "bound.k": ("count", "bound.k"),
    "bound.restricted_views": ("count", "bound.restricted_views"),
    "bound.doublings": ("count", "bound.doublings"),
    "bound.render_s": ("time", "bound.render"),
    "sweep.sweep_s": ("time", "sweep.sweep"),
    "sweep.events": ("count", "sweep.events"),
    "sweep.sigma_at_calls": ("calls", "sweep.sigma_at"),
    "sweep.k_hat": ("count", "sweep.k_hat"),
    "sweep.context_s": ("time", "sweep.context"),
    "cf.compare_calls": ("calls", "cf.compare"),
    "cf.compare_s": ("time", "cf.compare"),
    "cf.surd_to_cf_calls": ("calls", "cf.surd_to_cf"),
    "cf.surd_to_cf_s": ("time", "cf.surd_to_cf"),
    "cf.error_term_inits": ("calls", "cf.error_term_init"),
    "cf.error_term_init_s": ("time", "cf.error_term_init"),
    "cf.convergents_calls": ("calls", "cf.convergents"),
    "cf.convergents_terms": ("count", "cf.convergents_terms"),
    "cf.exact_value_calls": ("calls", "cf.exact_value"),
    "cf.exact_value_s": ("time", "cf.exact_value"),
    "surd.certify_calls": ("calls", "surd.certify"),
    "surd.certify_s": ("time", "surd.certify"),
    "surd.compare_calls": ("calls", "surd.compare"),
    "stepfunc.build_trajectory_s": ("time", "stepfunc.build_trajectory"),
    "stepfunc.breakpoints": ("count", "stepfunc.breakpoints"),
    "screening.rigidity_scan_s": ("time", "screening.rigidity_scan"),
    "screening.rigidity_records": ("count", "screening.rigidity_records"),
    "screening.rigidity_past_denominator": ("count", "screening.rigidity_past_denominator"),
    "screening.reversal_s": ("time", "screening.reversal"),
    "screening.reversal_sites": ("count", "screening.reversal_sites"),
    "screening.scan_coincidences_calls": ("calls", "screening.scan_coincidences"),
    "screening.scan_coincidences_s": ("time", "screening.scan_coincidences"),
    "specfile.parse_s": ("time", "specfile.parse"),
    "cli.main_s": ("time", "cli.main"),
    "cli.stdout_bytes": ("count", "cli.stdout_bytes"),
    **{f"self_share.{layer}": ("share", layer) for layer in LAYERS},
}
#: derived from the table above plus the traced/untraced comparison
DERIVED = ("screening.rigidity_useful_ratio", "tracing.overhead")


class Tracer:
    """In-memory span log plus the probes that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.item_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span: str, hook):
        nid = self.name_id(span)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("probes are already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "irrmeasure" or name.startswith("irrmeasure.")]
        for home, attr, span, hook in PROBES:
            owner = importlib.import_module(f"irrmeasure.{home}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, hook)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def call(self, span: str, fn, *args):
        """Run fn(*args) as a top-level span (the CLI entry point)."""
        idx = self.open(self.name_id(span))
        try:
            return fn(*args)
        finally:
            self.close(idx)

    # ------------------------------------------------------------ results

    def per_item(self, items: int, overhead: float) -> dict[str, float]:
        """Every per-layer metric, averaged over `items` traced items."""
        n = len(self.name)
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            nid = self.name[i]
            duration = self.end[i] - self.start[i]
            calls[nid] += 1
            inclusive[nid] += duration
            self_time[nid] += duration - child[i]
        by_name = {name: nid for nid, name in enumerate(self.names)}

        def lookup(table, span):
            return table[by_name[span]] if span in by_name else 0

        total = lookup(inclusive, "cli.main")
        layer_self = defaultdict(float)
        for nid, name in enumerate(self.names):
            layer_self[name.split(".")[0]] += self_time[nid]
        out: dict[str, float] = {}
        for metric, (kind, key) in PER_LAYER.items():
            if kind == "time":
                value = lookup(inclusive, key)
            elif kind == "calls":
                value = lookup(calls, key)
            elif kind == "count":
                value = self.counts.get(key, 0)
            else:
                out[metric] = layer_self[key] / total if total else 0.0
                continue
            out[metric] = value / items
        records = self.counts.get("screening.rigidity_records", 0)
        out["screening.rigidity_useful_ratio"] = (
            self.counts.get("screening.rigidity_past_denominator", 0) / records
            if records else 0.0)
        out["tracing.overhead"] = overhead
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated rows: id, parent, item, name,
        start, end (perf_counter seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\titem\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.item[i]}\t"
                         f"{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n")
