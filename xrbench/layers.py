"""Outside-in layer tracing: spans recorded around the program's public
functions, from wrappers that live only in the benchmark.

:func:`install` replaces each traced function where callers look it up:
the defining module, every loaded ``repro`` module that imported it by
name, or the class that owns a method.  :func:`uninstall` puts every
original back.  A wrapper opens a span on the calling thread's stack; a
span's *self time* is its duration minus the durations of its direct
children, so the self times of one operation's spans sum exactly to the
operation's root span.  The root span (opened by the benchmark with
:meth:`SpanRecorder.operation`) keeps as self time whatever no layer
claimed: the unattributed remainder.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: The layer each span name belongs to (span names are ``layer.part``).
LAYER_OF_PREFIX = {
    "chase": "repro.chase",
    "exchange": "repro.xr.exchange",
    "envelope": "repro.xr.envelope",
    "reduction": "repro.reduction",
    "queries": "repro.xr.queries",
    "segmentary": "repro.xr.segmentary",
    "program": "repro.xr.program",
    "asp": "repro.asp",
    "runtime": "repro.runtime",
    "incremental": "repro.incremental",
    "serve": "repro.serve",
}

#: Span name of the per-operation root the benchmark opens.
ROOT = "op"

#: Operation id and kind of spans recorded outside any operation.
SETUP = "setup"


@dataclass
class Span:
    name: str
    op: str | None
    kind: str | None
    start: float
    duration: float = 0.0
    child_time: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """Thread-safe in-memory span store, one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: str | None = None, kind: str | None = None) -> Span:
        """Open a span; without an explicit ``op`` it joins the enclosing
        operation, and outside any operation it counts as set-up work."""
        stack = self._stack()
        if op is None:
            op, kind = (stack[-1].op, stack[-1].kind) if stack else (SETUP, SETUP)
        span = Span(name, op, kind, time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.start
        stack = self._stack()
        popped = stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if stack:
            stack[-1].child_time += span.duration
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def operation(self, op: str, kind: str) -> Iterator[Span]:
        """One benchmark operation's root span."""
        span = self.begin(ROOT, op, kind)
        try:
            yield span
        finally:
            self.end(span)

    def add_external(self, op: str, kind: str, duration: float, child_time: float) -> None:
        """Record a root span measured elsewhere (a client-side request
        whose children ran in the server process)."""
        span = Span(ROOT, op, kind, 0.0, duration, child_time)
        with self._lock:
            self.spans.append(span)

    def extend(self, spans: list[Span]) -> None:
        with self._lock:
            self.spans.extend(spans)


# ------------------------------------------------------------ wrappers


def _traced(recorder: SpanRecorder, name: str, original, counts=None, drain=False):
    """A wrapper recording ``name`` around ``original``.

    ``counts(result, span)`` reads work counts from the return value.
    ``drain`` is for generator functions: the generator is consumed inside
    the span and an iterator over the same items is returned, so the span
    covers the work rather than the generator's creation.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
            if drain:
                result = list(result)
            if counts is not None:
                counts(result, span)
        finally:
            recorder.end(span)
        return iter(result) if drain else result

    wrapper.__xrbench_original__ = original
    return wrapper


def _count_len(key):
    def counts(result, span):
        span.counts[key] = len(result)
    return counts


def _count_sqlite(result, span):
    span.counts["plan_sqlite"] = int(result == "sqlite")


def _count_clusters(result, span):
    span.counts["clusters"] = len(result.clusters)


def _count_candidates(result, span):
    span.counts["candidates"] = len({candidate for candidate, _ in result})


def _count_query_stats(result, span):
    stats = result[1]
    span.counts.update(
        families=stats.families_solved,
        conflicts=stats.solver_stats.get("conflicts", 0),
        decisions=stats.solver_stats.get("decisions", 0),
        cache_hits=stats.cache_hits,
        cache_misses=stats.cache_misses,
        memo_hits=stats.memo_hits,
        memo_misses=stats.memo_misses,
    )


def _function_targets():
    """(module, attribute, span name, counts, drain) of traced functions."""
    return [
        ("repro.chase.batch", "batch_chase", "chase.chase", _count_len("chased_facts"), False),
        ("repro.chase.batch", "enumerate_groundings_batch", "chase.groundings",
         _count_len("groundings"), True),
        ("repro.chase.batch", "find_violations_batch", "chase.violations",
         _count_len("violations"), False),
        ("repro.chase.batch", "plan_mode", "chase.plan", _count_sqlite, False),
        ("repro.xr.exchange", "build_exchange_data", "exchange.index", None, False),
        ("repro.xr.envelope", "analyze_envelopes", "envelope.analyze", _count_clusters, False),
        ("repro.xr.queries", "ground_query", "queries.ground", _count_candidates, False),
        ("repro.xr.program", "build_family_program", "program.build", None, False),
        ("repro.xr.program", "build_xr_program", "program.build", None, False),
        ("repro.asp.reasoning", "decide_family", "asp.search", None, False),
        ("repro.asp.reasoning", "cautious_consequences", "asp.search", None, False),
        ("repro.asp.reasoning", "brave_consequences", "asp.search", None, False),
        ("repro.incremental.chase", "apply_delta_chase", "incremental.delta_chase", None, False),
    ]


def _method_targets():
    """(module, class, method, span name, counts) of traced methods."""
    return [
        ("repro.asp.stable", "StableModelEngine", "__init__", "asp.encode", None),
        ("repro.xr.segmentary", "SegmentaryEngine", "answer_with_stats",
         "segmentary.group", _count_query_stats),
        ("repro.runtime.executor", "SequentialExecutor", "run", "runtime.solve", None),
        ("repro.runtime.executor", "ParallelExecutor", "run", "runtime.solve", None),
        ("repro.incremental.session", "UpdateSession", "apply", "incremental.apply", None),
        ("repro.serve.admission", "AdmissionController", "_acquire",
         "serve.admission_wait", None),
        ("repro.serve.rwlock", "RWLock", "acquire_read", "serve.lock_wait", None),
        ("repro.serve.rwlock", "RWLock", "acquire_write", "serve.lock_wait", None),
    ]


class Installation:
    """The patches one :func:`install` made, for :func:`uninstall`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        self.patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)


def _import_layers() -> None:
    import importlib

    for name in (
        "repro.chase.batch", "repro.xr.exchange", "repro.xr.envelope",
        "repro.reduction.reduce", "repro.xr.queries", "repro.xr.program",
        "repro.asp.reasoning", "repro.asp.stable", "repro.xr.segmentary",
        "repro.runtime.executor", "repro.incremental.chase",
        "repro.incremental.session", "repro.serve",
    ):
        importlib.import_module(name)


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every traced function and method; returns the undo record."""
    _import_layers()
    installation = Installation(recorder)
    loaded = [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module_name, attribute, name, counts, drain in _function_targets():
        original = getattr(sys.modules[module_name], attribute)
        wrapper = _traced(recorder, name, original, counts, drain)
        for module in loaded:
            if module.__dict__.get(attribute) is original:
                installation.patch(module, attribute, wrapper)
    for module_name, class_name, method, name, counts in _method_targets():
        owner = getattr(sys.modules[module_name], class_name)
        original = owner.__dict__[method]
        installation.patch(owner, method, _traced(recorder, name, original, counts))
    _install_rewrite_hook(installation, loaded)
    _install_handler(installation)
    return installation


def _install_rewrite_hook(installation: Installation, loaded) -> None:
    """``ReducedMapping.rewrite`` is a per-instance callable, so the hook
    wraps it on every mapping ``reduce_mapping`` returns while installed."""
    original = sys.modules["repro.reduction.reduce"].reduce_mapping

    @functools.wraps(original)
    def reduce_mapping(*args, **kwargs):
        reduced = original(*args, **kwargs)
        _wrap_rewrite(installation, reduced)
        return reduced

    reduce_mapping.__xrbench_original__ = original
    for module in loaded:
        if module.__dict__.get("reduce_mapping") is original:
            installation.patch(module, "reduce_mapping", reduce_mapping)


def _wrap_rewrite(installation: Installation, reduced) -> None:
    """Trace ``reduced.rewrite`` until :func:`uninstall`."""
    installation.patch(
        reduced, "rewrite",
        _traced(installation.recorder, "reduction.rewrite", reduced.rewrite),
    )


def _install_handler(installation: Installation) -> None:
    """``ServeHandler.do_POST`` becomes the server-side root of a request,
    keyed by the ``X-Bench-Id`` header the load generator sends."""
    handler = sys.modules["repro.serve.http"].ServeHandler
    original = handler.__dict__["do_POST"]
    recorder = installation.recorder

    @functools.wraps(original)
    def do_POST(self):
        request_id = self.headers.get("X-Bench-Id")
        span = recorder.begin("serve.handler", op=request_id, kind="request")
        try:
            return original(self)
        finally:
            recorder.end(span)

    do_POST.__xrbench_original__ = original
    installation.patch(handler, "do_POST", do_POST)


def uninstall(installation: Installation) -> None:
    """Restore every original, newest patch first.

    A module imported while tracing was on may have bound a wrapper by
    name; those references are found and restored too.
    """
    for owner, attribute, original in reversed(installation.patches):
        setattr(owner, attribute, original)
    installation.patches.clear()
    for owner, attribute, wrapper in _reachable_wrappers():
        setattr(owner, attribute, wrapper.__xrbench_original__)


def _reachable_wrappers():
    """(owner, attribute, wrapper) for every wrapper a ``repro`` module or
    one of its classes still holds."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if hasattr(value, "__xrbench_original__"):
                found.append((module, attribute, value))
            if inspect.isclass(value) and value.__module__ == name:
                for method, member in list(vars(value).items()):
                    if hasattr(member, "__xrbench_original__"):
                        found.append((value, method, member))
    return found


def installed_wrappers() -> list[str]:
    """Names of traced wrappers still reachable (empty after uninstall)."""
    return sorted(
        f"{owner.__name__}.{attribute}" if inspect.ismodule(owner)
        else f"{owner.__module__}.{owner.__qualname__}.{attribute}"
        for owner, attribute, _ in _reachable_wrappers()
    )


# ------------------------------------------------------------ aggregation


def layer_of(span_name: str) -> str | None:
    if span_name == ROOT:
        return None
    return LAYER_OF_PREFIX[span_name.split(".", 1)[0]]


def by_operation(spans: list[Span], kind: str) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        if span.kind == kind and span.op is not None:
            grouped.setdefault(span.op, []).append(span)
    return grouped


def attribution(spans: list[Span], kind: str) -> dict:
    """Per-layer self time over every operation of ``kind``, checked to
    sum with the unattributed remainder to the end-to-end total."""
    per_layer: dict[str, float] = {}
    total = unattributed = 0.0
    operations = 0
    for op_spans in by_operation(spans, kind).values():
        roots = [span for span in op_spans if span.name == ROOT]
        if len(roots) != 1:
            continue  # a request the server saw but the client never timed
        operations += 1
        total += roots[0].duration
        unattributed += roots[0].self_time
        for span in op_spans:
            layer = layer_of(span.name)
            if layer is not None:
                per_layer[layer] = per_layer.get(layer, 0.0) + span.self_time
    accounted = sum(per_layer.values()) + unattributed
    return {
        "operations": operations,
        "end_to_end_s": total,
        "unattributed_s": unattributed,
        "layer_self_s": dict(sorted(per_layer.items())),
        "sum_error_s": accounted - total,
    }


def per_op(spans: list[Span], kind: str, name: str, attr: str = "self_time") -> list[float]:
    """Per operation: the sum of ``attr`` over spans called ``name``
    (operations without such a span are left out)."""
    values = []
    for op_spans in by_operation(spans, kind).values():
        matching = [getattr(span, attr) for span in op_spans if span.name == name]
        if matching:
            values.append(sum(matching))
    return values


def per_op_count(spans: list[Span], kind: str, key: str) -> list[float]:
    values = []
    for op_spans in by_operation(spans, kind).values():
        matching = [span.counts[key] for span in op_spans if key in span.counts]
        if matching:
            values.append(sum(matching))
    return values


def span_to_dict(span: Span) -> dict:
    return {
        "name": span.name, "op": span.op, "kind": span.kind,
        "duration": span.duration, "child_time": span.child_time,
        "counts": span.counts,
    }


def span_from_dict(data: dict) -> Span:
    return Span(
        data["name"], data["op"], data["kind"], 0.0,
        data["duration"], data["child_time"], dict(data["counts"]),
    )
