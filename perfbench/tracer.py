"""Spans and counters around the public functions of logfano's modules.

``Tracer.install`` replaces each target function by a wrapper wherever a
loaded ``logfano`` module holds a reference to it (``logfano.delta`` calls
``zariski_decompose`` through its own module global, so that binding is the
one wrapped), and ``restore`` puts the originals back.  A span wrapper records
``[name, start, end, parent span index, operation id]`` in memory; a count
wrapper only counts, for functions too small to time without distorting them.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"

# (metric prefix, module, attribute, mode)
TARGETS = (
    ("catalog.build_case", "logfano.catalog", "build_case", SPAN),
    ("catalog.validate_catalog", "logfano.catalog", "validate_catalog", SPAN),
    ("exact.poly_mul", "logfano.exact", "Poly.__mul__", COUNT),
    ("exact.integrate", "logfano.exact", "integrate", SPAN),
    ("exact.integrate_piecewise", "logfano.exact", "integrate_piecewise", SPAN),
    ("exact.rational_roots", "logfano.exact", "rational_roots", SPAN),
    ("exact.roots_in_interval", "logfano.exact", "roots_in_interval", SPAN),
    ("exact.solve_linear", "logfano.exact", "solve_linear", SPAN),
    ("exact.nullspace", "logfano.exact", "nullspace", SPAN),
    ("exact.is_negative_definite", "logfano.exact", "is_negative_definite", SPAN),
    ("exact.fit_rational_function", "logfano.exact", "fit_rational_function", SPAN),
    ("surface.pair", "logfano.surface", "pair", COUNT),
    ("surface.zariski_decompose", "logfano.surface", "zariski_decompose", SPAN),
    ("surface.volume_function", "logfano.surface", "volume_function", SPAN),
    ("surface.invariant_violations", "logfano.surface", "invariant_violations", SPAN),
    ("delta.delta_point", "logfano.delta", "delta_point", SPAN),
    ("delta.delta_closed_form", "logfano.delta", "delta_closed_form", SPAN),
    ("threefold.s_plane_flag", "logfano.threefold", "s_plane_flag", SPAN),
    ("threefold.s_blowup_flag", "logfano.threefold", "s_blowup_flag", SPAN),
    ("threefold.delta_bound_smooth", "logfano.threefold", "delta_bound_smooth", SPAN),
    ("threefold.delta_bound_blowup", "logfano.threefold", "delta_bound_blowup", SPAN),
    ("threefold.delta_bound_quadric", "logfano.threefold", "delta_bound_quadric", SPAN),
    ("threefold.verify_threefold_volumes", "logfano.threefold", "verify_threefold_volumes", SPAN),
    ("threefold.tangent_cone_delta", "logfano.threefold", "tangent_cone_delta", SPAN),
    ("threefold.evaluate_corollary", "logfano.threefold", "evaluate_corollary", SPAN),
    ("threefold.corollary_suite", "logfano.threefold", "corollary_suite", SPAN),
    ("verify.verify_case", "logfano.verify", "verify_case", SPAN),
    ("verify.verify_threefold_section", "logfano.verify", "verify_threefold_section", SPAN),
    ("verify.verify_all", "logfano.verify", "verify_all", SPAN),
    ("cli.main", "logfano.cli", "main", SPAN),
)
MODEL_ARG = "surface.zariski_decompose"  # its first argument is the SurfaceModel


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.models: set = set()
        self.op = None  # id of the operation in progress, stamped on each span
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, models = self.spans, self._stack, self.models
        note_model = name == MODEL_ARG

        def wrapper(*args, **kwargs):
            if note_model:
                models.add(args[0])
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "logfano" or n.startswith("logfano.")]
        for name, module_name, attr, mode in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner, _, member = attr.rpartition(".")
            owner = getattr(module, owner) if owner else module
            original = getattr(owner, member)
            wrapper = (self._span if mode == SPAN else self._count)(name, original)
            for holder in loaded + ([owner] if owner is not module else []):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def restore(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "models": sorted(map(repr, self.models))}

    def merge(self, exported: dict, op) -> None:
        """Add the spans and counts another process exported, under operation ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        self.counts.update(exported["counts"])
        self.models.update(exported["models"])

    def self_times(self) -> tuple[Counter, dict[str, float]]:
        """(calls per span name, total self seconds per span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[index]
        return calls, own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls, own = self.self_times()
        counts = Counter(self.counts)
        counts.update(calls)

        def layer_total(prefix: str) -> tuple[int, float]:
            names = [n for n in own if n.startswith(prefix)]
            return sum(calls[n] for n in names), 1000 * sum(own[n] for n in names)

        n_models = len(self.models)
        out = {
            "surface.zariski_decompose.calls": (counts["surface.zariski_decompose"], "count"),
            "surface.zariski_decompose.self_ms": (1000 * own["surface.zariski_decompose"], "ms"),
            "surface.decompose_per_model": (
                counts["surface.zariski_decompose"] / n_models if n_models else 0.0,
                "ratio",
            ),
            "surface.pair.calls": (counts["surface.pair"], "count"),
            "surface.invariant_violations.calls": (counts["surface.invariant_violations"], "count"),
            "surface.invariant_violations.self_ms": (1000 * own["surface.invariant_violations"], "ms"),
        }
        for fn in ("fit_rational_function", "nullspace", "solve_linear", "integrate_piecewise", "poly_mul"):
            out[f"exact.{fn}.calls"] = (counts[f"exact.{fn}"], "count")
        out["exact.self_ms"] = (layer_total("exact.")[1], "ms")
        for fn in ("delta_point", "delta_closed_form"):
            out[f"delta.{fn}.calls"] = (counts[f"delta.{fn}"], "count")
            out[f"delta.{fn}.self_ms"] = (1000 * own[f"delta.{fn}"], "ms")
        n, ms = layer_total("threefold.")
        out["threefold.calls"] = (n, "count")
        out["threefold.self_ms"] = (ms, "ms")
        out["verify.verify_case.calls"] = (counts["verify.verify_case"], "count")
        out["verify.verify_case.self_ms"] = (1000 * own["verify.verify_case"], "ms")
        out["catalog.build_case.calls"] = (counts["catalog.build_case"], "count")
        out["catalog.build_case.self_ms"] = (1000 * own["catalog.build_case"], "ms")
        out["catalog.validate_catalog.self_ms"] = (1000 * own["catalog.validate_catalog"], "ms")
        return out
