"""Spans recorded from outside the program, and the per-layer ledger.

The traced run wraps public entry points of each ``repro`` layer (see
:data:`WRAPPED`) with timing wrappers defined here.  Nothing inside
``src/`` changes: the wrappers are installed on the live modules and
classes of the process that does the work, and removed again by
:meth:`Tracer.uninstall`.

Each span records its name, start, end, parent span and a context id
(the request or batch it serves), plus one count and one value that
the wrapper derives from the call (references fed, bytes read, batch
size, ...).  Spans stay in memory; :func:`export` turns them into
plain rows written out at the end.  A layer's *self time* is its
spans' durations minus the part covered by child spans
(:func:`self_times`), so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

#: Span name -> layer whose self time it adds to.
LAYER_OF = {
    "trace.gen": "trace.gen",
    "storage.page_sequence": "storage.scan",
    "storage.distinct_keys": "storage.scan",
    "trace.stats": "trace.stats",
    "kernels.analyze": "kernels.feed",
    "kernels.feed": "kernels.feed",
    "kernels.finish": "kernels.finish",
    "kernels.curve": "kernels.finish",
    "fit.segment": "fit.segment",
    "catalog.save": "catalog.write",
    "protocol.decode": "protocol.decode",
    "protocol.encode": "protocol.encode",
    "server.respond": "server.respond",
    "server.submit": "server.submit",
    "admission.admit": "admission.admit",
    "server.collect": "server.collect",
    "server.execute": "server.execute",
    "tenants.lookup": "tenants.lookup",
    "engine.call": "engine.call",
    "engine.bind": "engine.bind",
    "engine.build": "engine.bind",
    "catalog.read": "catalog.read",
    "catalog.io": "catalog.read",
    "catalog.parse": "catalog.read",
    "estimators.compute": "estimators.compute",
    "obs.record": "obs.record",
}

#: Per-layer metrics: name -> (unit, better).  Every traced run
#: reports all of them; a layer a workload does not use reads 0.
PER_LAYER = {
    "trace.gen_s": ("s", "lower"),
    "storage.scan_s": ("s", "lower"),
    "trace.stats_s": ("s", "lower"),
    "kernels.feed_s": ("s", "lower"),
    "kernels.finish_s": ("s", "lower"),
    "kernels.ns_per_ref": ("ns/ref", "lower"),
    "kernels.refs": ("count", "higher"),
    "fit.segment_s": ("s", "lower"),
    "catalog.write_s": ("s", "lower"),
    "catalog.bytes_written": ("bytes", "lower"),
    "protocol.decode_us": ("us", "lower"),
    "protocol.encode_us": ("us", "lower"),
    "admission.queue_wait_us": ("us", "lower"),
    "admission.rejected": ("count", "lower"),
    "server.batches": ("count", "lower"),
    "server.batch_size_mean": ("count", "higher"),
    "server.batch_wait_us": ("us", "lower"),
    "tenants.lookup_us": ("us", "lower"),
    "catalog.read_us": ("us", "lower"),
    "catalog.reads_per_call": ("count", "lower"),
    "catalog.bytes_hashed_per_call": ("bytes", "lower"),
    "catalog.reloads": ("count", "lower"),
    "engine.bind_us": ("us", "lower"),
    "engine.bind_hit_ratio": ("ratio", "higher"),
    "estimators.compute_us": ("us", "lower"),
    "estimators.estimates": ("count", "higher"),
    "obs.record_us": ("us", "lower"),
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "traced.ops_per_s": ("1/s", "higher"),
    "traced.p50_ms": ("ms", "lower"),
}


class Span:
    """One timed call into a layer."""

    __slots__ = (
        "name", "start", "end", "parent", "ctx", "count", "value",
    )

    def __init__(self, name: str, parent: "Optional[Span]", ctx) -> None:
        self.name = name
        self.parent = parent
        self.ctx = ctx
        self.start = 0
        self.end = 0
        self.count = 0
        self.value = 0


class Tracer:
    """Records spans while :attr:`enabled`; owns the installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._restore: List[tuple] = []
        self._batch_ids = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ctx=None) -> Span:
        """Open a span under the calling thread's innermost span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ctx is None and parent is not None:
            ctx = parent.ctx
        span = Span(name, parent, ctx)
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def end(self, span: Span) -> None:
        """Close the calling thread's innermost span (``span``)."""
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def next_batch_id(self) -> str:
        """A fresh batch context id."""
        return f"batch:{next(self._batch_ids)}"

    # ------------------------------------------------------------------
    # Wrapper installation
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable] = None,
        ctx: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``count(span, args, result, exc)`` fills the span's count and
        value; ``ctx(tracer, args)`` names the request or batch it
        serves.  A call made while a span of the same name is already
        open on the thread is not recorded again: its time is inside
        the outer span and belongs to the same layer.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(
            raw, (staticmethod, classmethod)
        ) else None
        original = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            outer = tracer.current()
            if outer is not None and outer.name == name:
                return original(*args, **kwargs)
            span = tracer.begin(
                name, ctx(tracer, args) if ctx else None
            )
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                tracer.end(span)
                if count is not None:
                    count(span, args, result, exc)

        wrapped = kind(wrapper) if kind is not None else wrapper
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, raw))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time each ``next()`` of the generator ``owner.attr`` returns."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                if not tracer.enabled:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    yield item
                    continue
                span = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.end(span)
                    return
                tracer.end(span)
                span.count = len(item)
                yield item

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`WRAPPED`."""
        for module, owner, attr, name, count, ctx in WRAPPED:
            self.wrap(
                _resolve(module, owner), attr, name, count=count, ctx=ctx
            )
        for module, owner, attr, name in WRAPPED_GENERATORS:
            self.wrap_generator(_resolve(module, owner), attr, name)
        from repro.estimators.base import PageFetchEstimator

        for cls in _subclasses(PageFetchEstimator):
            for attr in ("estimate", "estimate_many"):
                if attr in vars(cls):
                    self.wrap(
                        cls, attr, "estimators.compute",
                        count=_count_estimates,
                    )
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        self.enabled = False
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def _resolve(module: str, owner: str):
    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


# ----------------------------------------------------------------------
# What each wrapper records
# ----------------------------------------------------------------------
def _sized(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _count_analyze(span, args, result, exc) -> None:
    span.count = _sized(args[1])


def _count_feed(span, args, result, exc) -> None:
    # A feed inside a one-shot analyze was already counted there.
    if span.parent is None or span.parent.name != "kernels.analyze":
        span.count = _sized(args[1])


def _count_save_path(span, args, result, exc) -> None:
    if exc is None:
        span.count = os.path.getsize(args[1])


def _count_store_save(span, args, result, exc) -> None:
    if exc is None:
        span.count = os.path.getsize(args[0].path)


def _count_result_len(span, args, result, exc) -> None:
    if exc is None:
        span.count = len(result)


def _count_rejected(span, args, result, exc) -> None:
    span.count = 1 if exc is not None else 0


def _count_decoded(span, args, result, exc) -> None:
    if exc is None:
        span.ctx = f"req:{getattr(result, 'request_id', 0)}"


def _count_collect(span, args, result, exc) -> None:
    # Batch wait: from when the batch's first request was both queued
    # and looked for, to when the batch closed.
    if result:
        first = min(pending.enqueued_ns for pending in result)
        span.count = 1
        span.value = span.end - max(span.start, first)


def _count_execute(span, args, result, exc) -> None:
    batch = args[1]
    span.count = len(batch)
    span.value = sum(span.start - pending.enqueued_ns for pending in batch)


def _count_estimates(span, args, result, exc) -> None:
    span.count = len(result) if isinstance(result, list) else 1


def _ctx_request(tracer, args) -> str:
    return f"req:{args[1].request_id}"


def _ctx_message(tracer, args) -> str:
    return f"req:{getattr(args[0], 'request_id', 0)}"


def _ctx_batch(tracer, args) -> str:
    return tracer.next_batch_id()


WRAPPED = (
    ("repro.storage.index", "Index", "page_sequence",
     "storage.page_sequence", _count_result_len, None),
    ("repro.storage.index", "Index", "distinct_key_count",
     "storage.distinct_keys", None, None),
    ("repro.estimators.epfis", "", "dc_cluster_count",
     "trace.stats", None, None),
    ("repro.buffer.kernels.base", "FetchCurveProvider", "analyze",
     "kernels.analyze", _count_analyze, None),
    ("repro.buffer.kernels.baseline", "BaselineKernel", "analyze",
     "kernels.analyze", _count_analyze, None),
    ("repro.buffer.kernels.base", "KernelStream", "feed",
     "kernels.feed", _count_feed, None),
    ("repro.buffer.kernels.base", "KernelStream", "finish",
     "kernels.finish", None, None),
    ("repro.buffer.stack", "FetchCurve", "from_distances",
     "kernels.curve", None, None),
    ("repro.estimators.epfis", "", "fit_piecewise_linear",
     "fit.segment", None, None),
    ("repro.catalog.catalog", "SystemCatalog", "save",
     "catalog.save", _count_save_path, None),
    ("repro.catalog.store", "CatalogStore", "save",
     "catalog.save", _count_store_save, None),
    ("repro.serving.netserver", "", "decode_any",
     "protocol.decode", _count_decoded, None),
    ("repro.serving.netserver", "", "encode",
     "protocol.encode", None, _ctx_message),
    ("repro.serving.server", "EstimationServer", "respond",
     "server.respond", None, _ctx_request),
    ("repro.serving.server", "EstimationServer", "submit",
     "server.submit", None, _ctx_request),
    ("repro.serving.admission", "AdmissionController", "admit",
     "admission.admit", _count_rejected, None),
    ("repro.serving.server", "EstimationServer", "_collect_batch",
     "server.collect", _count_collect, None),
    ("repro.serving.server", "EstimationServer", "_execute",
     "server.execute", _count_execute, _ctx_batch),
    ("repro.serving.tenants", "TenantCatalogs", "engine",
     "tenants.lookup", None, None),
    ("repro.engine.engine", "EstimationEngine", "estimate",
     "engine.call", None, None),
    ("repro.engine.engine", "EstimationEngine", "estimate_many",
     "engine.call", None, None),
    ("repro.engine.engine", "EstimationEngine", "estimate_grid",
     "engine.call", None, None),
    ("repro.engine.engine", "EstimationEngine", "estimator",
     "engine.bind", None, None),
    ("repro.engine.engine", "", "get_estimator",
     "engine.build", None, None),
    ("repro.catalog.store", "CatalogStore", "catalog",
     "catalog.read", None, None),
    ("repro.resilience.store", "ResilientCatalogStore", "catalog",
     "catalog.read", None, None),
    ("repro.catalog.store", "CatalogIO", "read_bytes",
     "catalog.io", _count_result_len, None),
    ("repro.catalog.catalog", "SystemCatalog", "from_json",
     "catalog.parse", None, None),
    ("repro.obs.metrics", "Counter", "inc", "obs.record", None, None),
    ("repro.obs.metrics", "Gauge", "set", "obs.record", None, None),
    ("repro.obs.metrics", "Histogram", "observe",
     "obs.record", None, None),
    ("repro.obs.metrics", "MetricFamily", "labels",
     "obs.record", None, None),
    ("repro.serving.obs", "DualChild", "inc", "obs.record", None, None),
    ("repro.serving.obs", "DualChild", "set", "obs.record", None, None),
    ("repro.serving.obs", "DualChild", "observe",
     "obs.record", None, None),
    ("repro.serving.obs", "DualFamily", "labels",
     "obs.record", None, None),
)

#: Generators whose every ``next()`` is a span (see
#: :meth:`Tracer.wrap_generator`).
WRAPPED_GENERATORS = (
    ("repro.trace.paper_scale", "PaperScaleTrace", "chunks", "trace.gen"),
)


# ----------------------------------------------------------------------
# Export and arithmetic
# ----------------------------------------------------------------------
def export(spans: Sequence[Span]) -> List[list]:
    """Spans as rows ``[name, start, end, parent, ctx, count, value]``.

    ``parent`` is the row index of the parent span, or -1.  Spans still
    open (``end == 0``) are dropped together with their descendants.
    """
    index: Dict[int, int] = {}
    rows: List[list] = []
    for span in spans:
        if span.end == 0:
            continue
        parent = -1
        if span.parent is not None:
            parent = index.get(id(span.parent), -2)
            if parent == -2:
                continue
        index[id(span)] = len(rows)
        rows.append([
            span.name, span.start, span.end, parent, span.ctx,
            span.count, span.value,
        ])
    return rows


def self_times(rows: Sequence[Sequence]) -> List[int]:
    """Each row's duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so the result never double-subtracts
    and never goes negative.
    """
    children: Dict[int, List[int]] = {}
    for i, row in enumerate(rows):
        if row[3] >= 0:
            children.setdefault(row[3], []).append(i)
    result = []
    for i, row in enumerate(rows):
        start, end = row[1], row[2]
        covered = 0
        cursor = start
        for lo, hi in sorted(
            (rows[c][1], rows[c][2]) for c in children.get(i, ())
        ):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


class Ledger:
    """Per-layer self time plus per-span-name calls, counts and values."""

    def __init__(self, rows: Sequence[Sequence]) -> None:
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.values: Dict[str, int] = {}
        for row, own in zip(rows, self_times(rows)):
            name = row[0]
            layer = LAYER_OF.get(name, name)
            self.self_ns[layer] = self.self_ns.get(layer, 0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            self.counts[name] = self.counts.get(name, 0) + row[5]
            self.values[name] = self.values.get(name, 0) + row[6]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    ledger: Ledger,
    passes: int = 0,
    lag_p99_ms: float = 0.0,
    traced_e2e: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one run's ledger.

    Fit-layer times and ``kernels.refs`` are per pass (``passes``);
    catalog writes are per write; serve-layer ``_us`` times are the
    mean self time per call of that layer's boundary, except
    ``obs.record_us`` and ``admission.queue_wait_us``, which are per
    request executed.
    """
    s = ledger.self_ns.get
    n = ledger.calls.get
    c = ledger.counts.get
    v = ledger.values.get
    per_pass = 1.0 / passes if passes else 0.0
    refs = c("kernels.analyze", 0) + c("kernels.feed", 0)
    requests = c("server.execute", 0)
    batches = n("server.execute", 0)
    engine_calls = n("engine.call", 0)
    e2e = traced_e2e or {}
    metrics = {
        "trace.gen_s": s("trace.gen", 0) / 1e9 * per_pass,
        "storage.scan_s": s("storage.scan", 0) / 1e9 * per_pass,
        "trace.stats_s": s("trace.stats", 0) / 1e9 * per_pass,
        "kernels.feed_s": s("kernels.feed", 0) / 1e9 * per_pass,
        "kernels.finish_s": s("kernels.finish", 0) / 1e9 * per_pass,
        "kernels.ns_per_ref": _ratio(
            s("kernels.feed", 0) + s("kernels.finish", 0), refs
        ),
        "kernels.refs": refs * per_pass,
        "fit.segment_s": s("fit.segment", 0) / 1e9 * per_pass,
        "catalog.write_s": _ratio(
            s("catalog.write", 0) / 1e9, n("catalog.save", 0)
        ),
        "catalog.bytes_written": _ratio(
            c("catalog.save", 0), n("catalog.save", 0)
        ),
        "protocol.decode_us": _ratio(
            s("protocol.decode", 0) / 1e3, n("protocol.decode", 0)
        ),
        "protocol.encode_us": _ratio(
            s("protocol.encode", 0) / 1e3, n("protocol.encode", 0)
        ),
        "admission.queue_wait_us": _ratio(
            v("server.execute", 0) / 1e3, requests
        ),
        "admission.rejected": c("admission.admit", 0),
        "server.batches": batches,
        "server.batch_size_mean": _ratio(requests, batches),
        "server.batch_wait_us": _ratio(
            v("server.collect", 0) / 1e3, c("server.collect", 0)
        ),
        "tenants.lookup_us": _ratio(
            s("tenants.lookup", 0) / 1e3, n("tenants.lookup", 0)
        ),
        "catalog.read_us": _ratio(
            s("catalog.read", 0) / 1e3, n("catalog.read", 0)
        ),
        "catalog.reads_per_call": _ratio(
            n("catalog.read", 0), engine_calls
        ),
        "catalog.bytes_hashed_per_call": _ratio(
            c("catalog.io", 0), engine_calls
        ),
        "catalog.reloads": n("catalog.parse", 0),
        "engine.bind_us": _ratio(
            s("engine.bind", 0) / 1e3, n("engine.bind", 0)
        ),
        "engine.bind_hit_ratio": (
            1.0 - _ratio(n("engine.build", 0), n("engine.bind", 0))
            if n("engine.bind", 0) else 0.0
        ),
        "estimators.compute_us": _ratio(
            s("estimators.compute", 0) / 1e3,
            n("estimators.compute", 0),
        ),
        "estimators.estimates": c("estimators.compute", 0),
        "obs.record_us": _ratio(s("obs.record", 0) / 1e3, requests),
        "loadgen.lag_p99_ms": lag_p99_ms,
        "traced.ops_per_s": e2e.get("ops_per_s", 0.0),
        "traced.p50_ms": e2e.get("p50_ms", 0.0),
    }
    return {key: float(value) for key, value in metrics.items()}
