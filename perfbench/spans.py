"""Span recording for the traced benchmark run.

The tracer wraps module-level functions of every ``unicube`` layer from the
outside: each wrapped function is replaced in every ``unicube`` module
namespace that bound it (so ``tents._norms_for_masks`` and the copy that
``inference`` imported are both covered). Each call records one span
``(id, parent, op, name, thread, start_ns, end_ns)`` in memory; the spans
are written out once, when the run ends, and the per-layer metrics are
derived from them: self time is a span's duration minus the union of its
children's intervals.

Worker threads have no span stack of their own, so a span opened on a worker
thread with an empty stack takes the innermost open span of the main thread
as its parent (the call that is waiting on the pool). Calls made outside an
operation (the benchmark's own correctness gates) are not recorded.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc

MB = 1024.0 * 1024.0

# (module, attribute): every wrapped function. A dotted attribute names a
# method on a class defined in that module.
WRAPPED = (
    ("core", "RandomStream.generator"),
    ("tents", "_norms_for_masks"),
    ("tents", "_canonical_rows"),
    ("tents", "_pair_factors"),
    ("tents", "_subset_product"),
    ("tents", "all_tent_norms"),
    ("inference", "null_statistic_matrix"),
    ("inference", "build_null_reference"),
    ("inference", "phat"),
    ("inference", "run_tests"),
    ("inference", "asymptotic_test"),
    ("inference", "_format_cache"),
    ("inference", "save_reference"),
    ("inference", "save_table"),
    ("inference", "_parse_cache"),
    ("inference", "load_reference"),
    ("inference", "load_table"),
    ("inference", "render_report"),
    ("inference", "report_json"),
    ("special", "chisq_quantile"),
    ("alternatives", "sample_alternative"),
    ("alternatives", "_phi"),
    ("power", "estimate_power"),
    ("power", "rows_to_csv"),
    ("brownian", "asymptotic_norm_draws"),
    ("brownian", "asymptotic_cdf"),
    ("cli", "_read_sample"),
)


def _kernel_extra(args, kwargs):
    """Computed work of one ``_norms_for_masks(batch, masks)`` call."""
    batch, masks = args[0], args[1]
    b, n, p = batch.shape
    pairs = n * (n + 1) // 2
    # Arrays the current kernel materialises: the u and v gathers and the
    # factor array (B, pairs, p) each, plus one memo product (B, pairs) per
    # mask. Labelled "computed": derived from shapes, not from the hardware.
    nbytes = 8 * b * pairs * (3 * p + len(masks))
    return {"rows": b, "pair_products": b * pairs * len(masks), "bytes": nbytes}


def _draws_extra(args, kwargs):
    """Normals drawn by one ``asymptotic_norm_draws(stream, k, nu_max, draws)``."""
    from unicube.brownian import default_nu_max

    names = ("stream", "k", "nu_max", "draws")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    k = bound["k"]
    nu = bound.get("nu_max") or default_nu_max(k)
    return {"normals": bound.get("draws", 100_000) * nu ** k}


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs["path"]


# Extra per-call figures, computed from the arguments before or after a call.
_BEFORE = {
    "tents._norms_for_masks": _kernel_extra,
    "brownian.asymptotic_norm_draws": _draws_extra,
    "inference.load_reference": lambda a, k: {"bytes": os.path.getsize(_path_arg(a, k, 0))},
    "inference.load_table": lambda a, k: {"bytes": os.path.getsize(_path_arg(a, k, 0))},
}
_AFTER = {
    "inference.save_reference": lambda a, k: {"bytes": os.path.getsize(_path_arg(a, k, 1))},
    "inference.save_table": lambda a, k: {"bytes": os.path.getsize(_path_arg(a, k, 1))},
}
# Spans whose peak tracemalloc memory is recorded, when the predicate holds:
# batched kernel calls only (starting tracemalloc costs more than a
# single-sample call), and main-thread calls only, because tracemalloc is
# process-wide and pool workers run concurrently.
_PEAK = {"tents._norms_for_masks": lambda args, kwargs: args[0].shape[0] > 1,
         "brownian.asymptotic_norm_draws": lambda args, kwargs: True}


class Tracer:
    """Records spans for wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.extra: dict[int, dict] = {}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []
        self.op = 0

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        import unicube  # noqa: F401  (loads every layer module)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "unicube" or name.startswith("unicube.")]
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            try:
                mod = importlib.import_module(f"unicube.{mod_name}")
                owner = mod
                parts = attr.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(parts) > 1:
                self._restore.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, original):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        peak = _PEAK.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.op:  # outside an operation (correctness gates)
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            span_id = next(tracer._ids)
            extra = before(args, kwargs) if before else None
            measure = (peak and threading.current_thread() is tracer._main
                       and not tracemalloc.is_tracing() and peak(args, kwargs))
            if measure:
                tracemalloc.start()
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if measure:
                    extra = dict(extra or {}, peak=tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                if after:
                    extra = dict(extra or {}, **after(args, kwargs))
                if extra:
                    tracer.extra[span_id] = extra
                tracer.spans.append((span_id, parent, tracer.op, name,
                                     threading.get_ident(), start, end))

        wrapper.__wrapped__ = original
        return wrapper

    # -- ops --------------------------------------------------------------
    def begin_op(self, op_id: int, kind: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op = op_id
        self._main_stack.append(-op_id)
        self._op_start = time.perf_counter_ns()
        self._op_kind = kind

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        op_id = -self._main_stack.pop()
        self.spans.append((-op_id, 0, op_id, f"op.{self._op_kind}",
                           threading.get_ident(), self._op_start, end))
        self.op = 0

    # -- output -------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line, with its extra figures."""
        fields = ["id", "parent", "op", "name", "thread", "start_ns", "end_ns", "extra"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(list(span) + [self.extra.get(span[0])]) + "\n")

    def fired(self) -> set[str]:
        return {span[3] for span in self.spans}

    def totals(self):
        """Per span name: (count, inclusive seconds, self seconds), and the
        unattributed seconds of every op (op wall minus its direct children)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for span in self.spans:
            children.setdefault(span[1], []).append((span[5], span[6]))
        out: dict[str, list] = {}
        unattributed = 0.0
        for span in self.spans:
            start, end = span[5], span[6]
            covered = _union(children.get(span[0], ()), start, end)
            row = out.setdefault(span[3], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - covered) / 1e9
            if span[0] < 0:
                unattributed += (end - start - covered) / 1e9
        return out, unattributed

    def extra_values(self, name: str, key: str) -> list:
        names = {span[0]: span[3] for span in self.spans}
        return [extra[key] for span_id, extra in self.extra.items()
                if names.get(span_id) == name and key in extra]


def _union(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics (seconds, counts, MB) derived from the spans."""
    totals, unattributed = tracer.totals()

    def count(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def total(name, key):
        return sum(tracer.extra_values(name, key))

    def peak_mb(name):
        return max(tracer.extra_values(name, "peak"), default=0) / MB

    kernel = "tents._norms_for_masks"
    draws = "brownian.asymptotic_norm_draws"
    return {
        "core.stream_s": incl("core.RandomStream.generator"),
        "core.streams": count("core.RandomStream.generator"),
        "tents.kernel_s": incl(kernel),
        "tents.kernel_calls": count(kernel),
        "tents.kernel_rows": total(kernel, "rows"),
        "tents.canonical_rows_s": self_("tents._canonical_rows"),
        "tents.pair_factors_s": self_("tents._pair_factors"),
        "tents.subset_product_s": self_("tents._subset_product"),
        "tents.pair_sum_s": self_(kernel),
        "tents.pair_products": total(kernel, "pair_products"),
        "tents.bytes_computed": total(kernel, "bytes"),
        "tents.peak_mb": peak_mb(kernel),
        "tents.single_s": incl("tents.all_tent_norms"),
        "inference.null_matrix_s": self_("inference.null_statistic_matrix"),
        "inference.sort_s": self_("inference.build_null_reference"),
        "inference.pvalue_s": incl("inference.phat"),
        "inference.pvalue_calls": count("inference.phat"),
        "inference.decide_s": self_("inference.run_tests", "inference.asymptotic_test"),
        "inference.cache_format_s": incl("inference._format_cache"),
        "inference.cache_write_s": self_("inference.save_reference", "inference.save_table"),
        "inference.cache_bytes_written": (total("inference.save_reference", "bytes")
                                          + total("inference.save_table", "bytes")),
        "inference.cache_misses": (count("inference.save_reference")
                                   + count("inference.save_table")),
        "inference.cache_parse_s": incl("inference._parse_cache"),
        "inference.cache_read_s": self_("inference.load_reference", "inference.load_table"),
        "inference.cache_bytes_read": (total("inference.load_reference", "bytes")
                                       + total("inference.load_table", "bytes")),
        "inference.cache_hits": (count("inference.load_reference")
                                 + count("inference.load_table")),
        "special.chisq_quantile_s": incl("special.chisq_quantile"),
        "special.chisq_quantile_calls": count("special.chisq_quantile"),
        "alternatives.sample_s": self_("alternatives.sample_alternative"),
        "alternatives.samples": count("alternatives.sample_alternative"),
        "alternatives.phi_s": incl("alternatives._phi"),
        "power.estimate_s": self_("power.estimate_power"),
        "brownian.norm_draws_s": incl(draws),
        "brownian.normals_drawn": total(draws, "normals"),
        "brownian.peak_mb": peak_mb(draws),
        "brownian.cdf_s": incl("brownian.asymptotic_cdf"),
        "cli.read_sample_s": incl("cli._read_sample"),
        "cli.render_s": incl("inference.render_report", "inference.report_json"),
        "cli.csv_s": incl("power.rows_to_csv"),
        "trace.unattributed_s": unattributed,
        "trace.spans": len(tracer.spans),
    }
