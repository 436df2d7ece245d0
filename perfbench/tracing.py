"""Spans around calls into each qfj module, installed from outside.

A Tracer replaces selected qfj functions with wrappers that record a span
(name, layer, start, end, parent span, op id, exception type) in memory. A
function is replaced everywhere a qfj module bound it by name, so a call
through `fseries.c_of_q` is traced as well as one through `qgauss.c_of_q`.
uninstall() puts every original object back.

Layer metrics are computed from the spans after the run: a span's self time
is its duration minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable

LAYERS = ("qcore", "qcalc", "qgauss", "pairings", "fseries", "qgraphs", "suites", "cli")

# (module, attribute) of every traced function; "Class.method" names a method
TARGETS = {
    "qcore": ("QPolynomial.__add__", "QPolynomial.__neg__", "QPolynomial.__sub__",
              "QPolynomial.__rsub__", "QPolynomial.__mul__", "QPolynomial.__pow__",
              "QPolynomial.eval", "QPolynomial.compose_power",
              "q_bracket", "q_factorial", "q_double_factorial", "q_squared_factorial"),
    "qcalc": ("q_derivative", "jackson_integral", "jackson_integral_symmetric",
              "e_q", "E_q", "_E_q_float_fallback"),
    "qgauss": ("kernel_eval_x2", "kernel_eval", "c_of_q", "_interchanged_c_mp",
               "moment_closed_form", "moment_by_integration"),
    "pairings": ("enumerate_pairings", "weight", "weight_exponent_counts",
                 "weighted_pairing_sum"),
    "fseries": ("lambda_closed_form", "lambda_oracle", "_ddf_at", "_qsq_factorial_at",
                "fj_term", "fj_blocks", "fj_coefficient", "fj_series",
                "integrand_expansion", "fj_coefficient_via_moments", "_fj_numeric_mp",
                "fj_numeric"),
    "qgraphs": ("enumerate_graphs", "omega_q", "a_q", "graph_block_value",
                "graph_sum_coefficient"),
    "suites": ("run_suite",),
    "cli": ("main",),
}

# lru_cache'd functions whose cache_info() gives each layer's hit ratio
CACHES = {
    "qcore": ("q_factorial", "q_double_factorial"),
    "fseries": ("_ddf_at", "_qsq_factorial_at"),
    "pairings": ("weight_exponent_counts",),
}

# span record fields
NAME, LAYER, START, END, PARENT, OP, EXC = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = None
        self.eval_coeffs = 0
        self.max_degree = 0
        self.nodes = 0
        self._replaced: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- recording ------------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, layer, time.perf_counter(), 0.0, parent, self.op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list, exc: BaseException | None = None) -> None:
        record[END] = time.perf_counter()
        if exc is not None:
            record[EXC] = type(exc).__name__
        self.stack.pop()

    def _wrap(self, original, name: str, layer: str):
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(record, exc)
                raise
            tracer.close(record)
            tracer._count(name, layer, args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def _count(self, name: str, layer: str, args, result) -> None:
        if name == "QPolynomial.eval":
            self.eval_coeffs += len(args[0].coefficients)
        elif name == "c_of_q":
            self.nodes += result.terms_used
        if layer == "qcore":
            degree = getattr(result, "degree", None)
            if isinstance(degree, int) and degree > self.max_degree:
                self.max_degree = degree

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every target, in every qfj module that bound it by name."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qfj" or key.startswith("qfj."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"qfj.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    owners = [getattr(home, cls_name)]
                    original = vars(owners[0])[attr]
                else:
                    owners = modules
                    original = getattr(home, name)
                self._originals[name] = original
                wrapper = self._wrap(original, name, layer)
                # every binding by name, aliases such as __radd__ = __add__ too
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._replaced.append((owner, key, original))
                            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._replaced):
            setattr(owner, key, original)
        restored = all(vars(owner)[key] is original
                       for owner, key, original in self._replaced)
        self._replaced.clear()
        if not restored:
            raise RuntimeError("tracing wrappers were not all removed")

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per layer, summed over that layer's lru caches."""
        out = {}
        for layer, names in CACHES.items():
            hits = misses = 0
            for name in names:
                info = self._originals[name].cache_info()
                hits += info.hits
                misses += info.misses
            out[layer] = (hits, misses)
        return out


# -- analysis ------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span's own interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record[PARENT] >= 0:
            children.setdefault(record[PARENT], []).append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list], counts: dict) -> dict:
    """Per-layer aggregates of one traced process, as plain numbers that can
    be summed across processes (see combine)."""
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({f"{layer}.calls": 0 for layer in LAYERS})
    names: dict[str, int] = {}
    for record, own in zip(spans, selfs):
        layer = record[LAYER]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += 1
        names[record[NAME]] = names.get(record[NAME], 0) + 1
    durations: dict[str, float] = {}
    for record in spans:
        durations[record[NAME]] = durations.get(record[NAME], 0.0) + record[END] - record[START]
    refusals = 0
    wasted = 0.0
    for record in spans:
        # a refusal counts once, at the span where it leaves the qgauss layer
        if record[LAYER] == "qgauss" and record[EXC] == "TruncationError":
            parent = record[PARENT]
            if parent < 0 or spans[parent][LAYER] != "qgauss":
                refusals += 1
                wasted += record[END] - record[START]
    out.update({
        "qcore.poly_mul": names.get("QPolynomial.__mul__", 0),
        "qcore.max_degree": counts["max_degree"],
        "qcore.eval_coeffs": counts["eval_coeffs"],
        "fseries.terms": names.get("fj_term", 0),
        "fseries.mp_s": durations.get("_fj_numeric_mp", 0.0),
        "qgauss.kernel_evals": names.get("kernel_eval_x2", 0),
        "qgauss.nodes": counts["nodes"],
        "qgauss.mp_s": durations.get("_interchanged_c_mp", 0.0),
        "qgauss.refusals": refusals,
        "qgauss.wasted_s": wasted,
        "qcalc.fallback_calls": names.get("_E_q_float_fallback", 0),
        "spans": len(spans),
    })
    for layer, (hits, misses) in counts["caches"].items():
        out[f"{layer}.cache_hits"] = hits
        out[f"{layer}.cache_misses"] = misses
    return out


def tracer_summary(tracer: Tracer) -> dict:
    return summarize(tracer.spans, {
        "max_degree": tracer.max_degree, "eval_coeffs": tracer.eval_coeffs,
        "nodes": tracer.nodes, "caches": tracer.cache_counts()})


def combine(parts: Iterable[dict]) -> dict:
    """Sum per-process summaries; max_degree takes the maximum."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            if key == "qcore.max_degree":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


PER_LAYER_METRICS = (
    ("qcore.self_s", "s"), ("qcore.calls", "count"), ("qcore.poly_mul", "count"),
    ("qcore.max_degree", "degree"), ("qcore.eval_coeffs", "count"),
    ("qcore.cache_hit_ratio", "ratio"),
    ("fseries.self_s", "s"), ("fseries.terms", "count"), ("fseries.cache_hit_ratio", "ratio"),
    ("fseries.mp_s", "s"),
    ("pairings.self_s", "s"), ("pairings.calls", "count"), ("pairings.cache_hit_ratio", "ratio"),
    ("qgraphs.self_s", "s"), ("qgraphs.calls", "count"),
    ("qgauss.self_s", "s"), ("qgauss.kernel_evals", "count"), ("qgauss.nodes", "count"),
    ("qgauss.mp_s", "s"), ("qgauss.refusals", "count"), ("qgauss.wasted_s", "s"),
    ("qcalc.self_s", "s"), ("qcalc.calls", "count"), ("qcalc.fallback_calls", "count"),
    ("suites.self_s", "s"),
    ("cli.self_s", "s"), ("cli.import_s", "s"),
    ("trace_overhead_s", "s"),
)


def layer_metrics(total: dict, import_s: float, overhead_s: float) -> dict:
    """The per-layer metrics, by name with unit, from combined summaries."""
    values = dict(total)
    for layer in CACHES:
        hits = values.get(f"{layer}.cache_hits", 0)
        misses = values.get(f"{layer}.cache_misses", 0)
        values[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cli.import_s"] = import_s
    values["trace_overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER_METRICS}
