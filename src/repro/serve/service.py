"""The query service: one warm engine, many concurrent requests.

This is the object the HTTP layer (and the in-process tests) talk to.
It owns exactly one of everything expensive:

- one :class:`~repro.xr.segmentary.SegmentaryEngine`, its exchange phase
  materialized **once at construction** (so the first request pays no
  exchange cost and concurrent first requests cannot race to build it);
- one shared :class:`~repro.runtime.SignatureProgramCache`, bounded so a
  long-lived process has a bounded footprint;
- one :class:`~repro.incremental.UpdateSession` applying every write;
- one live :class:`~repro.obs.Metrics` registry, exported at
  ``/metrics`` (the tracer stays NOOP — span trees grow without bound
  in a long-lived process, so tracing is a per-run CLI affair).

Concurrency model (DESIGN.md §13):

- queries take the :class:`~repro.serve.rwlock.RWLock` **shared** and
  run truly concurrently on the engine — safe because the read path's
  shared mutable state is internally locked (cache, executor dispatch,
  one-time exchange) and each request carries its *own*
  :class:`~repro.runtime.SolveBudget` (never mutating engine state);
- updates take the lock **exclusive** (single-writer seam): an in-flight
  query never observes a half-applied delta, and the writer-preferring
  lock keeps a steady query stream from starving updates;
- the :class:`~repro.serve.admission.AdmissionController` bounds how
  many queries execute or wait, shedding overload at the door.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.dependencies.mapping import SchemaMapping
from repro.incremental import Delta
from repro.obs.export import to_prometheus
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, Metrics
from repro.obs.recorder import Recorder
from repro.obs.tracing import NOOP_TRACER
from repro.reduction.reduce import ReducedMapping
from repro.relational.instance import Instance
from repro.runtime.budget import NO_BUDGET, SolveBudget
from repro.runtime.cache import SignatureProgramCache
from repro.xr.segmentary import SegmentaryEngine

from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.protocol import (
    QueryRequest,
    answer_payload,
    request_budget,
    update_payload,
)
from repro.serve.rwlock import RWLock


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs (every one also a ``repro serve`` CLI flag)."""

    jobs: int = 1
    solve_strategy: str = "incremental"
    # Budget ceiling: per-request budgets are capped by these (a client
    # can tighten its own SLO, never loosen the server's).
    deadline: float | None = None
    task_timeout: float | None = None
    max_retries: int = 0
    # Admission control.
    max_inflight: int = 8
    max_queue: int = 16
    queue_timeout: float = 2.0
    # Cache bounds (entries per layer); None = unbounded.
    max_programs: int | None = 4096
    max_decisions: int | None = 65536

    def budget_ceiling(self) -> SolveBudget:
        if (
            self.deadline is None
            and self.task_timeout is None
            and self.max_retries == 0
        ):
            return NO_BUDGET
        return SolveBudget(
            deadline=self.deadline,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
        )


class QueryService:
    """A warm engine behind a readers–writer seam and admission control."""

    def __init__(
        self,
        mapping: SchemaMapping | ReducedMapping,
        instance: Instance,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = Metrics()
        self.obs = Recorder(tracer=NOOP_TRACER, metrics=self.metrics)
        self.cache = SignatureProgramCache(
            max_programs=self.config.max_programs,
            max_decisions=self.config.max_decisions,
        )
        self.cache.metrics = self.metrics
        self.engine = SegmentaryEngine(
            mapping,
            instance,
            jobs=self.config.jobs,
            cache=self.cache,
            obs=self.obs,
            solve_strategy=self.config.solve_strategy,
        )
        self._ceiling = self.config.budget_ceiling()
        self.rwlock = RWLock()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
        )
        self._started = time.monotonic()
        # Materialize the exchange now: requests never pay it, and the
        # lazily-built lookup structures are warm before concurrency
        # begins.
        self.engine.exchange()
        self.session = self.engine.update_session()

    # ------------------------------------------------------------- reads

    def query(self, request: QueryRequest) -> dict:
        """Answer one request; raises :class:`AdmissionRejected` when the
        server is saturated.  Over-budget requests degrade (never 500):
        ``allow_partial=True`` surfaces ``unknown_candidates`` instead of
        raising."""
        self.metrics.inc("serve_requests_total")
        started = time.perf_counter()
        try:
            with self.admission.admit():
                with self.rwlock.read_locked():
                    answers, stats = self.engine.answer_with_stats(
                        request.query,
                        mode=request.mode,
                        allow_partial=True,
                        budget=request_budget(request, self._ceiling),
                    )
        except AdmissionRejected:
            self.metrics.inc("serve_rejected_total")
            raise
        if stats.degraded:
            self.metrics.inc("serve_degraded_total")
        self.metrics.histogram(
            "serve_request_seconds", DEFAULT_TIME_BUCKETS
        ).observe(time.perf_counter() - started)
        return answer_payload(request, answers, stats)

    # ------------------------------------------------------------ writes

    def update(self, deltas: list[Delta]) -> dict:
        """Apply delta steps in order under the exclusive lock.  Every
        step is checked before the first applies, so a request naming a
        non-source relation or a wrong arity changes nothing."""
        with self.rwlock.write_locked():
            reports = self.session.apply_stream(deltas)
        self.metrics.inc("serve_updates_total", len(reports))
        return update_payload(reports)

    # ------------------------------------------------------- diagnostics

    def health(self) -> dict:
        exchange = self.engine.exchange_stats
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started,
            "admission": self.admission.snapshot(),
            "lock": self.rwlock.snapshot(),
            "exchange": {
                "source_facts": exchange.source_facts,
                "chased_facts": exchange.chased_facts,
                "violations": exchange.violations,
                "clusters": exchange.clusters,
            },
            "cache_entries": len(self.cache),
        }

    def metrics_text(self) -> str:
        return to_prometheus(self.metrics)

    def close(self) -> None:
        self.engine.close()
