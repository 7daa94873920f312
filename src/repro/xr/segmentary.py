"""The segmentary engine (Sections 6.4–6.5).

Query answering in two phases:

- the **exchange phase** (query-independent, PTIME): chase, violations,
  support closures, safe/suspect split, violation clusters, influences —
  everything in :mod:`repro.xr.envelope`;
- the **query phase**: ground the (rewritten) query over the quasi-solution
  to obtain candidate answers; accept immediately those with an all-safe
  support set; group the rest by *signature* (the set of violation clusters
  whose influences meet their supports); decide each group with one small
  ground disjunctive program — the Figure 1 program restricted to the
  group's focus, with safe facts represented by *true*.

Many small hard problems instead of one large one (Theorem 4).

Because distinct clusters are pairwise-independent (Definition 8 /
Propositions 5–6), the per-signature programs are too: the query phase
*builds* all of them first, then dispatches the batch through a pluggable
:mod:`repro.runtime` executor — sequentially by default, or across a
process pool with ``jobs > 1``.  A cross-query cache
(:class:`~repro.runtime.SignatureProgramCache`) makes repeated queries
over a warm engine skip redundant solving entirely.  Parallel and
sequential execution, cached and uncached, return identical answers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Container

from repro.asp.syntax import AtomTable, GroundProgram
from repro.dependencies.mapping import SchemaMapping
from repro.obs.metrics import DEFAULT_TIME_BUCKETS
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.reduction.reduce import ReducedMapping, reduce_mapping
from repro.relational.instance import Fact, Instance
from repro.relational.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.runtime.budget import NO_BUDGET, SolveBudget, SolveBudgetExceeded
from repro.runtime.cache import (
    ProgramFlight,
    SignatureProgramCache,
    decision_key,
    program_key,
)
from repro.runtime.executor import (
    PackedProgram,
    SolveExecutor,
    SolveTask,
    make_executor,
)
from repro.xr.envelope import EnvelopeAnalysis, analyze_envelopes
from repro.xr.exchange import ExchangeData, build_exchange_data
from repro.xr.program import (
    XRProgram,
    build_family_program,
    build_xr_program,
)
from repro.xr.queries import answers_from_facts, ground_query


@dataclass
class QueryPhaseStats:
    """Diagnostics from one :meth:`SegmentaryEngine.answer` call.

    Built locally during the call and published to
    ``engine.last_query_stats`` in a single assignment at the end, so
    concurrent readers never observe a half-filled object.
    """

    candidates: int = 0
    safe_candidates: int = 0
    signatures: int = 0
    programs_solved: int = 0
    largest_program_atoms: int = 0
    total_rules: int = 0
    # Wall-clock: the whole query phase, the program-build portion (group
    # resolution including cache probes and program construction), the
    # solve portion, and each dispatched program individually (executor
    # order).
    seconds: float = 0.0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    program_seconds: list[float] = field(default_factory=list)
    # Cache observability: program-level hits/misses and per-candidate
    # decision-memo hits/misses, for this query only.
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    # How the batch actually ran (the executor's ``last_dispatch`` after
    # the solve — "sequential"/"parallel"/"mixed" — not merely how the
    # executor was configured), and the SatSolver statistics summed over
    # every program solved by this call.
    executor: str = "sequential"
    solver_stats: dict[str, int] = field(default_factory=dict)
    # Resource governance: groups cut off by the budget (their candidates
    # are *unknown*, listed below as answer tuples), worker re-dispatches
    # after crashes, and whether any degradation happened at all.  With no
    # budget configured these stay at their defaults.
    timeouts: int = 0
    retries: int = 0
    degraded: bool = False
    unknown_candidates: set[tuple] = field(default_factory=set)
    # Incremental solve-strategy observability: which strategy ran, how
    # many cluster families were solved, how many candidates those
    # families covered, level-0 assumption-core skips (candidates decided
    # without search), and clauses carried across candidates (learned
    # clauses + loop formulas + steering, summed over family engines).
    strategy: str = "per-signature"
    families_solved: int = 0
    family_candidates: int = 0
    core_skips: int = 0
    carried_clauses: int = 0
    # Single-flight solving: signature groups answered by another query's
    # in-flight solve of the same program, and the seconds spent waiting
    # for such solves (published or not).
    coalesced: int = 0
    coalesce_wait_seconds: float = 0.0

    def copy(self) -> "QueryPhaseStats":
        """An independent deep copy (no shared mutable containers).

        ``engine.last_query_stats`` hands out copies built with this, so
        a caller mutating the object it got back — or holding it across a
        later query — can never alias the engine's own snapshot.
        """
        return replace(
            self,
            program_seconds=list(self.program_seconds),
            solver_stats=dict(self.solver_stats),
            unknown_candidates=set(self.unknown_candidates),
        )


@dataclass
class ExchangePhaseStats:
    """Diagnostics from the exchange phase."""

    seconds: float = 0.0
    source_facts: int = 0
    chased_facts: int = 0
    groundings: int = 0
    violations: int = 0
    clusters: int = 0
    suspect_source_facts: int = 0
    safe_source_facts: int = 0


# A shared empty program for groups fully decided by the caches.
_EMPTY_PROGRAM = GroundProgram(AtomTable())


@dataclass
class _SignatureGroup:
    """One signature group's work unit in the query phase."""

    key: tuple
    signature: frozenset[int]
    xr_program: XRProgram
    # Candidate -> decision-memo key, for the candidates the solver decides.
    decision_keys: dict[Fact, frozenset]
    # Query atoms actually sent to the solver (trivially-certain ones are
    # accepted up front and excluded from the solve set).
    solve_atoms: dict[Fact, int]
    # Group candidates already accepted before solving: program-cache hits,
    # memo hits, trivially-certain candidates.
    accepted_so_far: set[Fact]
    # Candidates the caches could not decide.  Under the incremental
    # strategy the per-signature program is *not* built — these ride into
    # the family program instead, and ``solve_atoms`` is filled in then.
    unresolved: list[Fact] = field(default_factory=list)
    # Another query's in-flight solve of this very program: the group is
    # neither built nor solved here, only awaited (single flight).
    awaiting: ProgramFlight | None = None


class SegmentaryEngine:
    """XR-Certain query answering with an exchange phase and per-signature
    query programs.

    Accepts any ``glav+(wa-glav, egd)`` mapping (reduced internally).  Call
    :meth:`exchange` once (or let the first :meth:`answer` trigger it), then
    answer any number of queries against the materialized exchange state.

    Runtime knobs (all answer-neutral — they change wall-clock time only):

    - ``jobs``: worker processes for signature solving (1 = in-process);
    - ``executor``: a pre-built :class:`~repro.runtime.SolveExecutor`
      overriding ``jobs`` (e.g. a shared pool);
    - ``cache``: ``True`` (default) for a private cross-query cache, a
      :class:`~repro.runtime.SignatureProgramCache` instance to share one,
      or ``False`` to disable caching;
    - ``parallel_threshold``: batches smaller than this solve in-process
      even when ``jobs > 1``;
    - ``solve_strategy``: ``"incremental"`` (default) merges signature
      groups into cluster families and decides each family's candidates
      on one solver with shared learned clauses
      (:func:`~repro.asp.reasoning.decide_family`); ``"per-signature"``
      builds and solves a fresh program per signature group (the pre-PR 8
      behavior).  Both return identical answers; the caches are keyed per
      signature in both, so entries are shared across strategies.

    Resource governance (``budget``, a :class:`~repro.runtime.SolveBudget`)
    is the one knob that can change *what* is answered: a signature group
    whose solve exceeds the budget is reported as **unknown** — with
    ``allow_partial=True`` its candidates are excluded from certain
    answers (sound under-approximation), conservatively included in
    possible answers (sound over-approximation), and listed in
    ``stats.unknown_candidates``; with ``allow_partial=False`` (the
    default) the call raises :class:`~repro.runtime.SolveBudgetExceeded`.
    With no budget configured, answers are bit-identical to an unbudgeted
    engine.

    The engine is a context manager; ``with SegmentaryEngine(...) as e:``
    guarantees the executor's worker pool is released.  An executor
    *passed in* by the caller is never closed by the engine (shared pools
    stay up); only internally-created executors are.
    """

    def __init__(
        self,
        mapping: SchemaMapping | ReducedMapping,
        instance: Instance,
        encoding: str = "repair",
        jobs: int = 1,
        executor: SolveExecutor | None = None,
        cache: bool | SignatureProgramCache = True,
        parallel_threshold: int = 2,
        budget: SolveBudget | None = None,
        obs: Recorder | None = None,
        solve_strategy: str = "incremental",
    ):
        if isinstance(mapping, ReducedMapping):
            self.reduced = mapping
        else:
            self.reduced = reduce_mapping(mapping)
        self.instance = instance
        self.encoding = encoding
        solve_strategy = solve_strategy.replace("_", "-")
        if solve_strategy not in ("incremental", "per-signature"):
            raise ValueError(
                f"unknown solve strategy {solve_strategy!r}; choose "
                "'incremental' or 'per-signature'"
            )
        self.solve_strategy = solve_strategy
        self.jobs = jobs
        self.budget = budget if budget is not None else NO_BUDGET
        self.obs = obs if obs is not None else NOOP_RECORDER
        self._owns_executor = executor is None
        if executor is not None:
            self.executor = executor
        else:
            self.executor = make_executor(jobs, min_batch=parallel_threshold)
        if self._owns_executor and self.obs.metrics.enabled:
            # Only an executor this engine created gets its metrics hook;
            # a shared pool passed in by the caller is left untouched.
            self.executor.metrics = self.obs.metrics
        if cache is True:
            self.cache: SignatureProgramCache | None = SignatureProgramCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.data: ExchangeData | None = None
        self.analysis: EnvelopeAnalysis | None = None
        self.exchange_stats = ExchangePhaseStats()
        self._last_query_stats = QueryPhaseStats()
        # Guards the one-time exchange phase: concurrent first queries on
        # a shared engine (the serving tier) must not both materialize.
        self._exchange_lock = threading.Lock()

    @property
    def last_query_stats(self) -> QueryPhaseStats:
        """Diagnostics of the most recent query, as an independent copy.

        Every read returns a fresh deep copy, so two readers can never
        corrupt each other (or the engine) by mutating what they got.
        """
        return self._last_query_stats.copy()

    @last_query_stats.setter
    def last_query_stats(self, stats: QueryPhaseStats) -> None:
        self._last_query_stats = stats.copy()

    def close(self) -> None:
        """Release executor resources (worker processes, if any).

        Only closes executors this engine created itself; an executor the
        caller passed in (e.g. a pool shared across engines) is left up.
        """
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "SegmentaryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------ exchange phase

    def exchange(self) -> ExchangePhaseStats:
        """Run the query-independent exchange phase; idempotent.

        Thread-safe: concurrent callers serialize on a lock and exactly
        one materializes; the rest return the published stats.  ``data``
        and ``analysis`` are assigned only after they are fully built, so
        a reader that saw ``analysis is not None`` sees complete state.
        """
        if self.analysis is not None:
            return self.exchange_stats
        with self._exchange_lock:
            return self._exchange_locked()

    def _exchange_locked(self) -> ExchangePhaseStats:
        if self.analysis is not None:
            return self.exchange_stats
        tracer, metrics = self.obs.tracer, self.obs.metrics
        started = time.perf_counter()
        with tracer.span("exchange"):
            data = build_exchange_data(
                self.reduced.gav, self.instance, obs=self.obs
            )
            with tracer.span("exchange.envelope"):
                analysis = analyze_envelopes(data)
        self.exchange_stats = ExchangePhaseStats(
            seconds=time.perf_counter() - started,
            source_facts=len(self.instance),
            chased_facts=len(data.chased),
            groundings=len(data.groundings),
            violations=len(data.violations),
            clusters=len(analysis.clusters),
            suspect_source_facts=len(analysis.suspect_source),
            safe_source_facts=len(analysis.safe_source),
        )
        # Publish only once everything (stats included) is complete: the
        # unlocked fast path above keys on `analysis is not None`.
        self.data = data
        self.analysis = analysis
        if metrics.enabled:
            metrics.inc(
                "exchange_clusters_total", self.exchange_stats.clusters
            )
            metrics.inc(
                "exchange_suspect_source_facts_total",
                self.exchange_stats.suspect_source_facts,
            )
            metrics.inc(
                "exchange_safe_source_facts_total",
                self.exchange_stats.safe_source_facts,
            )
        return self.exchange_stats

    def update_session(self):
        """An :class:`~repro.incremental.UpdateSession` over this engine.

        Runs the exchange phase if needed, then returns a session that
        maintains this engine's exchange state (data, analysis, cache) in
        place: after each applied delta the engine answers queries against
        the updated instance without a from-scratch re-exchange.
        """
        self.exchange()
        from repro.incremental import UpdateSession

        assert self.data is not None
        return UpdateSession(
            self.data,
            analysis=self.analysis,
            cache=self.cache,
            obs=self.obs,
            engine=self,
        )

    def refresh_exchange_stats(self) -> None:
        """Re-derive :attr:`exchange_stats` counts from the current state
        (called by an update session after each delta; timings are kept).

        Copy-on-publish: a fresh stats object is built and swapped in
        with one assignment, so a concurrent reader (a ``/metrics`` or
        ``/healthz`` scrape overlapping an applied delta) sees either the
        old snapshot or the new one in full — never a half-updated mix.
        """
        if self.data is None or self.analysis is None:
            return
        self.exchange_stats = ExchangePhaseStats(
            seconds=self.exchange_stats.seconds,
            source_facts=len(self.instance),
            chased_facts=len(self.data.chased),
            groundings=len(self.data.groundings),
            violations=len(self.data.violations),
            clusters=len(self.analysis.clusters),
            suspect_source_facts=len(self.analysis.suspect_source),
            safe_source_facts=len(self.analysis.safe_source),
        )

    # --------------------------------------------------------- query phase

    def answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        allow_partial: bool = False,
        budget: SolveBudget | None = None,
    ) -> set[tuple]:
        """The XR-Certain answers to ``query`` (a set of constant tuples)."""
        answers, _stats = self.answer_with_stats(
            query, mode="certain", allow_partial=allow_partial, budget=budget
        )
        return answers

    def possible_answers(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        allow_partial: bool = False,
        budget: SolveBudget | None = None,
    ) -> set[tuple]:
        """The XR-Possible answers: tuples holding in *some* XR-solution.

        Decided with the same per-signature decomposition: by cluster
        independence (Definition 8), a candidate holds in some XR-solution
        iff it holds in some combination of repairs of its signature's
        clusters, i.e. iff its signature program answers bravely.
        """
        answers, _stats = self.answer_with_stats(
            query, mode="possible", allow_partial=allow_partial, budget=budget
        )
        return answers

    def answer_with_stats(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        mode: str = "certain",
        allow_partial: bool = False,
        budget: SolveBudget | None = None,
    ) -> tuple[set[tuple], QueryPhaseStats]:
        """Answer ``query`` and return ``(answers, stats)``.

        The stats object is freshly built per call (and also published as
        ``self.last_query_stats``); callers holding it never see it mutate
        under a later query.

        When the engine's budget cuts a signature group off (timeout, or a
        crashed worker out of retries), ``allow_partial`` decides the
        behavior: ``True`` degrades gracefully — the group's undecided
        candidates are reported in ``stats.unknown_candidates``, excluded
        from certain answers and conservatively included in possible
        answers, and never written to the caches — while ``False`` raises
        :class:`~repro.runtime.SolveBudgetExceeded`.  Degraded certain
        answers are always a subset of the exact ones, degraded possible
        answers a superset.
        """
        self.exchange()
        assert self.data is not None and self.analysis is not None
        started = time.perf_counter()
        data, analysis = self.data, self.analysis
        if budget is None:
            # Per-call override absent: the engine's configured budget.
            # The serving tier passes one per request so concurrent
            # deadlines never share (or mutate) engine state.
            budget = self.budget
        stats = QueryPhaseStats(
            executor=self.executor.name, strategy=self.solve_strategy
        )
        clock = budget.started()  # None unless a deadline is set
        unknown: set[Fact] = set()
        tracer, metrics = self.obs.tracer, self.obs.metrics

        with tracer.span("query", mode=mode) as query_span:
            with tracer.span("query.ground"):
                rewritten = self.reduced.rewrite(query)
                groundings = ground_query(rewritten, data.chased)

                # Group support sets per candidate fact.
                supports_by_candidate: dict[Fact, list[tuple[Fact, ...]]] = {}
                for candidate, support in groundings:
                    supports_by_candidate.setdefault(candidate, []).append(
                        support
                    )
                stats.candidates = len(supports_by_candidate)

                accepted: set[Fact] = set()
                by_signature: dict[frozenset[int], list[Fact]] = {}
                for candidate, supports in supports_by_candidate.items():
                    if any(
                        all(analysis.is_safe_fact(fact) for fact in support)
                        for support in supports
                    ):
                        # An all-safe support set: certain.
                        accepted.add(candidate)
                        continue
                    signature = analysis.signature(
                        {fact for support in supports for fact in support}
                    )
                    if not signature:
                        raise RuntimeError(
                            f"unsafe candidate {candidate!r} with empty "
                            "signature: exchange-phase invariant violated"
                        )
                    by_signature.setdefault(signature, []).append(candidate)
                stats.safe_candidates = len(accepted)
                stats.signatures = len(by_signature)

            # Single flight: each round builds, solves and publishes the
            # programs this query owns, releases every claim, and only
            # then waits on programs other queries are solving.  A query
            # never waits while it owns a claim, so no two queries wait on
            # each other.  A flight released without a value (its owner
            # timed out or failed) sends its group into another round.
            claims: list[ProgramFlight] = []
            round_signatures = by_signature
            try:
                while round_signatures:
                    awaiting = self._decide_round(
                        round_signatures, supports_by_candidate, mode,
                        stats, accepted, unknown, clock, allow_partial,
                        budget, claims,
                    )
                    self._release(claims)
                    if not awaiting:
                        break
                    round_signatures = self._await_flights(
                        awaiting, by_signature, stats, accepted, unknown,
                        clock, allow_partial,
                    )
            finally:
                self._release(claims)

            if unknown:
                stats.degraded = True
                stats.unknown_candidates = answers_from_facts(unknown)
                if mode == "possible":
                    # Conservative over-approximation: a candidate we
                    # could not decide might hold in some XR-solution, so
                    # possible answers must include it (exact-possible ⊆
                    # degraded).
                    accepted |= unknown
            query_span.count("candidates", stats.candidates)
            query_span.count("signatures", stats.signatures)
            query_span.count("programs_solved", stats.programs_solved)
        stats.seconds = time.perf_counter() - started
        if metrics.enabled:
            self._record_query_metrics(metrics, stats)
        # Single-assignment publication: the engine keeps its own deep
        # copy, and the caller gets the local object — neither can mutate
        # the other's view afterwards.
        self._last_query_stats = stats.copy()
        return answers_from_facts(accepted), stats

    def _decide_round(
        self,
        by_signature: dict[frozenset[int], list[Fact]],
        supports_by_candidate: dict[Fact, list[tuple[Fact, ...]]],
        mode: str,
        stats: QueryPhaseStats,
        accepted: set[Fact],
        unknown: set[Fact],
        clock,
        allow_partial: bool,
        budget: SolveBudget,
        claims: list[ProgramFlight],
    ) -> list[_SignatureGroup]:
        """Decide every signature group this query can decide itself.

        Builds every still-undecided program this query owns first, then
        solves the whole batch through the executor (the programs are
        pairwise independent, so any execution order or interleaving is
        valid).  Keys claimed on the way are appended to ``claims``.
        Returns the groups whose program another query is solving.
        """
        assert self.analysis is not None
        incremental = self.solve_strategy == "incremental"
        tracer, metrics = self.obs.tracer, self.obs.metrics
        awaiting: list[_SignatureGroup] = []
        pending: list[_SignatureGroup] = []
        family_batches: list[list[_SignatureGroup]] = []
        tasks: list[SolveTask] = []
        build_started = time.perf_counter()
        with tracer.span("query.build"):
            for signature, candidates in by_signature.items():
                if clock is not None and clock.expired():
                    # Deadline passed during program construction:
                    # everything still unresolved is unknown — never
                    # silently dropped, never fabricated.
                    if not allow_partial:
                        raise SolveBudgetExceeded(
                            "query deadline exceeded while building "
                            "signature programs"
                        )
                    stats.timeouts += 1
                    unknown.update(candidates)
                    continue
                group = self._resolve_group(
                    signature, candidates, supports_by_candidate,
                    self.analysis.safe_chased, mode, stats, claims,
                    build=not incremental,
                )
                if group.awaiting is not None:
                    awaiting.append(group)
                    continue
                accepted |= group.accepted_so_far
                # Trivially-certain candidates are folded in *before*
                # any query_atoms guard: even if `_emit_query_rules`'s
                # invariant (trivially_certain ⊆ query_atoms) ever
                # loosens, they can never be dropped.
                accepted |= group.xr_program.trivially_certain
                if incremental:
                    if group.unresolved:
                        pending.append(group)
                    else:
                        self._finalize_group(group, set(), mode)
                    continue
                if group.solve_atoms:
                    pending.append(group)
                    tasks.append(
                        SolveTask(
                            program=PackedProgram.pack(
                                group.xr_program.program
                            ),
                            query_atom_ids=tuple(
                                sorted(group.solve_atoms.values())
                            ),
                            mode=mode,
                            budget=budget,
                            trace=tracer.enabled,
                        )
                    )
                else:
                    self._finalize_group(group, set(), mode)
            if incremental and pending:
                family_batches, tasks = self._assemble_families(
                    pending, supports_by_candidate, mode, stats,
                    accepted, unknown, clock, allow_partial,
                    trace=tracer.enabled, budget=budget,
                )
        stats.build_seconds += time.perf_counter() - build_started

        if tasks:
            with tracer.span("query.solve"):
                outcomes = self.executor.run(tasks, deadline=clock)
                stats.executor = self.executor.last_dispatch
                if incremental:
                    self._handle_family_outcomes(
                        family_batches, outcomes, mode, stats,
                        accepted, unknown, allow_partial,
                        tracer, metrics,
                    )
                else:
                    self._handle_signature_outcomes(
                        pending, outcomes, mode, stats,
                        accepted, unknown, allow_partial,
                        tracer, metrics,
                    )
        return awaiting

    def _await_flights(
        self,
        awaiting: list[_SignatureGroup],
        by_signature: dict[frozenset[int], list[Fact]],
        stats: QueryPhaseStats,
        accepted: set[Fact],
        unknown: set[Fact],
        clock,
        allow_partial: bool,
    ) -> dict[frozenset[int], list[Fact]]:
        """Take each awaited group's verdicts from the query solving it.

        Every wait ends by the query's own deadline; past it, the group's
        candidates are unknown, exactly as if the deadline had passed
        while building.  Returns the groups whose owner released its
        claim without publishing: the caller decides them in another
        round.
        """
        retry: dict[frozenset[int], list[Fact]] = {}
        started = time.perf_counter()
        with self.obs.tracer.span("query.wait"):
            for group in awaiting:
                flight = group.awaiting
                assert flight is not None
                timeout = None if clock is None else clock.remaining()
                if not flight.wait(timeout):
                    if not allow_partial:
                        raise SolveBudgetExceeded(
                            "query deadline exceeded while waiting for a "
                            "concurrent solve of the same program"
                        )
                    stats.timeouts += 1
                    unknown.update(by_signature[group.signature])
                elif flight.value is None:
                    retry[group.signature] = by_signature[group.signature]
                else:
                    stats.coalesced += 1
                    accepted |= flight.value
        stats.coalesce_wait_seconds += time.perf_counter() - started
        return retry

    def _release(self, claims: list[ProgramFlight]) -> None:
        """Release every claim in ``claims`` (waking its waiters) and
        empty the list."""
        if self.cache is not None:
            for flight in claims:
                self.cache.release(flight)
        claims.clear()

    def _handle_signature_outcomes(
        self,
        pending: list[_SignatureGroup],
        outcomes,
        mode: str,
        stats: QueryPhaseStats,
        accepted: set[Fact],
        unknown: set[Fact],
        allow_partial: bool,
        tracer,
        metrics,
    ) -> None:
        """Fold per-signature solve outcomes into the answer state."""
        for group, outcome in zip(pending, outcomes):
            stats.retries += max(0, outcome.attempts - 1)
            if outcome.span is not None:
                # Worker span trees ride the result channel home;
                # reattached here under query.solve with a remote-clock
                # marker.
                tracer.attach(outcome.span)
            if not outcome.ok:
                # This group's solve was cut off (deadline, per-task
                # timeout, or a crashed worker out of retries): its
                # candidates are *unknown*.  Nothing is cached — an
                # unknown is a budget artifact, not a verdict.
                if not allow_partial:
                    raise SolveBudgetExceeded(
                        f"signature solve {outcome.status}: "
                        f"{len(group.solve_atoms)} candidate(s) undecided"
                    )
                stats.timeouts += 1
                unknown.update(group.solve_atoms)
                continue
            if outcome.decided is None:
                raise RuntimeError("a signature program has no stable model")
            stats.programs_solved += 1
            stats.program_seconds.append(outcome.seconds)
            stats.solve_seconds += outcome.seconds
            if metrics.enabled:
                metrics.histogram(
                    "solve_seconds", DEFAULT_TIME_BUCKETS
                ).observe(outcome.seconds)
            for key, value in outcome.solver_stats.items():
                stats.solver_stats[key] = (
                    stats.solver_stats.get(key, 0) + value
                )
            newly = {
                fact
                for fact, atom_id in group.solve_atoms.items()
                if atom_id in outcome.decided
            }
            accepted |= newly
            self._finalize_group(group, newly, mode)

    def _handle_family_outcomes(
        self,
        family_batches: list[list[_SignatureGroup]],
        outcomes,
        mode: str,
        stats: QueryPhaseStats,
        accepted: set[Fact],
        unknown: set[Fact],
        allow_partial: bool,
        tracer,
        metrics,
    ) -> None:
        """Fold family solve outcomes into the answer state.

        A family outcome may be *partial* (``status="timeout"`` with
        verdicts attached): every decided candidate keeps its exact
        verdict, only the ``undecided`` remainder degrades to unknown —
        and a member group is cached only when every one of its
        candidates got a verdict, so the caches never hold half-truths.
        """
        for members, outcome in zip(family_batches, outcomes):
            stats.retries += max(0, outcome.attempts - 1)
            if outcome.span is not None:
                tracer.attach(outcome.span)
            family_size = sum(len(m.solve_atoms) for m in members)
            if not outcome.ok and outcome.decided is None:
                # Hard cutoff before any verdict (batch deadline, crash
                # out of retries): the whole family is unknown.
                if not allow_partial:
                    raise SolveBudgetExceeded(
                        f"family solve {outcome.status}: "
                        f"{family_size} candidate(s) undecided"
                    )
                stats.timeouts += 1
                for member in members:
                    unknown.update(member.solve_atoms)
                continue
            if outcome.decided is None:
                raise RuntimeError("a family program has no stable model")
            if outcome.undecided and not allow_partial:
                raise SolveBudgetExceeded(
                    f"family solve {outcome.status}: "
                    f"{len(outcome.undecided)} of {family_size} "
                    "candidate(s) undecided"
                )
            stats.programs_solved += 1
            stats.families_solved += 1
            stats.family_candidates += family_size
            stats.program_seconds.append(outcome.seconds)
            stats.solve_seconds += outcome.seconds
            if metrics.enabled:
                metrics.histogram(
                    "solve_seconds", DEFAULT_TIME_BUCKETS
                ).observe(outcome.seconds)
            for key, value in outcome.solver_stats.items():
                stats.solver_stats[key] = (
                    stats.solver_stats.get(key, 0) + value
                )
            stats.core_skips += outcome.solver_stats.get("core_skips", 0)
            stats.carried_clauses += outcome.solver_stats.get(
                "carried_clauses", 0
            )
            if outcome.undecided:
                stats.timeouts += 1
            for member in members:
                newly = {
                    fact
                    for fact, atom_id in member.solve_atoms.items()
                    if atom_id in outcome.decided
                }
                accepted |= newly
                member_unknown = {
                    fact
                    for fact, atom_id in member.solve_atoms.items()
                    if atom_id in outcome.undecided
                }
                if member_unknown:
                    # Partially decided member: its exact verdicts count
                    # toward the answer, but the caches get nothing (a
                    # cache entry must cover the whole group).
                    unknown.update(member_unknown)
                else:
                    self._finalize_group(member, newly, mode)

    @staticmethod
    def _record_query_metrics(metrics, stats: QueryPhaseStats) -> None:
        """Fold one query phase's deterministic counters into ``metrics``."""
        metrics.inc("queries_total")
        metrics.inc("query_candidates_total", stats.candidates)
        metrics.inc("query_safe_candidates_total", stats.safe_candidates)
        metrics.inc("query_signatures_total", stats.signatures)
        metrics.inc("query_programs_solved_total", stats.programs_solved)
        metrics.inc("query_ground_rules_total", stats.total_rules)
        metrics.inc("cache_program_hits_total", stats.cache_hits)
        metrics.inc("cache_program_misses_total", stats.cache_misses)
        metrics.inc("cache_memo_hits_total", stats.memo_hits)
        metrics.inc("cache_memo_misses_total", stats.memo_misses)
        metrics.inc("query_timeouts_total", stats.timeouts)
        metrics.inc("query_retries_total", stats.retries)
        metrics.inc("query_families_solved_total", stats.families_solved)
        metrics.inc("query_family_candidates_total", stats.family_candidates)
        metrics.inc("solve_core_skips_total", stats.core_skips)
        metrics.inc("solve_carried_clauses_total", stats.carried_clauses)
        if stats.coalesce_wait_seconds:
            # Only queries that waited report, so a sequential run's work
            # profile (the golden metrics) carries no coalescing counters.
            metrics.inc("cache_program_coalesced_total", stats.coalesced)
            metrics.histogram(
                "cache_program_coalesce_wait_seconds", DEFAULT_TIME_BUCKETS
            ).observe(stats.coalesce_wait_seconds)
        metrics.inc(
            "query_unknown_candidates_total", len(stats.unknown_candidates)
        )
        if stats.degraded:
            metrics.inc("budget_degraded_queries_total")
        metrics.gauge("query_largest_program_atoms").max(
            stats.largest_program_atoms
        )
        for key, value in stats.solver_stats.items():
            metrics.inc(f"solver_{key}_total", value)

    # Backwards-compatible internal entry point.
    def _answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        mode: str,
    ) -> set[tuple]:
        answers, _stats = self.answer_with_stats(query, mode=mode)
        return answers

    # ------------------------------------------------------------ helpers

    def _resolve_group(
        self,
        signature: frozenset[int],
        candidates: list[Fact],
        supports_by_candidate: dict[Fact, list[tuple[Fact, ...]]],
        safe_facts: Container[Fact],
        mode: str,
        stats: QueryPhaseStats,
        claims: list[ProgramFlight],
        build: bool = True,
    ) -> _SignatureGroup:
        """Decide a signature group from the caches, or build its program.

        A group answered entirely from the cache comes back with an empty
        ``solve_atoms`` and its accepted candidates in ``accepted_so_far``;
        otherwise the built program rides along for the executor batch.

        A cache miss claims the program key (appended to ``claims``); when
        another query already holds the claim, the group comes back with
        that query's flight in ``awaiting`` and nothing probed or built.

        ``build=False`` (the incremental strategy) stops after the cache
        probes: undecided candidates come back in ``unresolved`` and no
        per-signature program is constructed — the family program built
        later covers them.  Cache keys are identical either way, so warm
        entries are shared across strategies.
        """
        assert self.analysis is not None and self.data is not None
        analysis, data = self.analysis, self.data

        group_groundings = [
            (candidate, support)
            for candidate in candidates
            for support in supports_by_candidate[candidate]
        ]
        key = program_key(signature, self.encoding, mode, group_groundings)

        if self.cache is not None:
            probe = self.cache.lookup_or_claim(key)
            if not probe.owns:  # a hit, or another query's flight
                if probe.accepted is not None:
                    stats.cache_hits += 1
                return _SignatureGroup(
                    key=key,
                    signature=signature,
                    xr_program=XRProgram(program=_EMPTY_PROGRAM),
                    decision_keys={},
                    solve_atoms={},
                    accepted_so_far=set(probe.accepted or ()),
                    awaiting=probe.flight,
                )
            claims.append(probe.flight)
            stats.cache_misses += 1

        # Per-candidate decision memo: coarser than the program cache —
        # it ignores the query's name and answer tuple, so structurally
        # identical candidates from *different* queries share verdicts.
        unresolved: list[Fact] = []
        group_accept: set[Fact] = set()
        decision_keys: dict[Fact, frozenset] = {}
        for candidate in candidates:
            memo_key = decision_key(supports_by_candidate[candidate], safe_facts)
            decision_keys[candidate] = memo_key
            verdict = None
            if self.cache is not None:
                verdict = self.cache.lookup_decision(
                    signature, self.encoding, mode, memo_key
                )
            if verdict is None:
                stats.memo_misses += 1
                unresolved.append(candidate)
            else:
                stats.memo_hits += 1
                if verdict:
                    group_accept.add(candidate)

        if not unresolved:
            return _SignatureGroup(
                key=key,
                signature=signature,
                xr_program=XRProgram(program=_EMPTY_PROGRAM),
                decision_keys={},
                solve_atoms={},
                accepted_so_far=group_accept,
            )

        if not build:
            return _SignatureGroup(
                key=key,
                signature=signature,
                xr_program=XRProgram(program=_EMPTY_PROGRAM),
                decision_keys={c: decision_keys[c] for c in unresolved},
                solve_atoms={},
                accepted_so_far=group_accept,
                unresolved=unresolved,
            )

        # Signatures hold *stable* cluster ids (incremental maintenance can
        # retire/mint ids), so resolution goes through the id lookup rather
        # than list position.
        clusters = [analysis.cluster(index) for index in signature]
        focus_ids: set[int] = set()
        violations = []
        for cluster in clusters:
            focus_ids |= cluster.influence_ids
            violations.extend(cluster.violations)
        focus_ids -= analysis.safe_ids
        query_groundings = [
            (candidate, support)
            for candidate in unresolved
            for support in supports_by_candidate[candidate]
        ]
        xr_program = build_xr_program(
            data,
            query_groundings=query_groundings,
            violations=violations,
            encoding=self.encoding,
            focus_ids=focus_ids,
            safe_ids=analysis.safe_ids,
        )
        stats.largest_program_atoms = max(
            stats.largest_program_atoms, xr_program.program.num_atoms
        )
        stats.total_rules += len(xr_program.program)

        solve_atoms = {
            fact: atom_id
            for fact, atom_id in xr_program.query_atoms.items()
            if fact not in xr_program.trivially_certain
        }
        return _SignatureGroup(
            key=key,
            signature=signature,
            xr_program=xr_program,
            decision_keys={c: decision_keys[c] for c in unresolved},
            solve_atoms=solve_atoms,
            accepted_so_far=group_accept,
            unresolved=unresolved,
        )

    def _assemble_families(
        self,
        pending: list[_SignatureGroup],
        supports_by_candidate: dict[Fact, list[tuple[Fact, ...]]],
        mode: str,
        stats: QueryPhaseStats,
        accepted: set[Fact],
        unknown: set[Fact],
        clock,
        allow_partial: bool,
        trace: bool = False,
        budget: SolveBudget | None = None,
    ) -> tuple[list[list[_SignatureGroup]], list[SolveTask]]:
        """Merge pending signature groups into cluster families, one shared
        program (and one :class:`SolveTask`) per family.

        Two groups belong to the same family when their signatures share a
        violation cluster (transitively — union-find over cluster ids).
        Each family's program is built once over the union focus
        (:func:`~repro.xr.program.build_family_program`); its members'
        ``solve_atoms`` are filled from the *shared* atom table, and every
        member keeps only its **own** trivially-certain candidates — a
        family-wide set in a member's cache entry would leak foreign facts
        into warm hits.  A family rides the executor as a single task so
        solver reuse survives process-pool dispatch.
        """
        assert self.analysis is not None and self.data is not None
        analysis, data = self.analysis, self.data
        if budget is None:
            budget = self.budget

        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        for group in pending:
            ids = sorted(group.signature)
            for cluster_id in ids:
                parent.setdefault(cluster_id, cluster_id)
            anchor = find(ids[0])
            for cluster_id in ids[1:]:
                parent[find(cluster_id)] = anchor

        families: dict[int, list[_SignatureGroup]] = {}
        for group in pending:
            families.setdefault(find(min(group.signature)), []).append(group)

        family_batches: list[list[_SignatureGroup]] = []
        tasks: list[SolveTask] = []
        for root in sorted(families):
            members = families[root]
            if clock is not None and clock.expired():
                if not allow_partial:
                    raise SolveBudgetExceeded(
                        "query deadline exceeded while building family "
                        "programs"
                    )
                stats.timeouts += 1
                for member in members:
                    unknown.update(member.unresolved)
                continue
            cluster_ids = sorted(
                set().union(*(member.signature for member in members))
            )
            query_groundings = [
                (candidate, support)
                for member in members
                for candidate in member.unresolved
                for support in supports_by_candidate[candidate]
            ]
            # `builder` resolves through this module's globals so both
            # strategies share one program-builder seam (tests stub it).
            family_program = build_family_program(
                data,
                query_groundings=query_groundings,
                clusters=[analysis.cluster(i) for i in cluster_ids],
                safe_ids=analysis.safe_ids,
                encoding=self.encoding,
                builder=build_xr_program,
            )
            stats.largest_program_atoms = max(
                stats.largest_program_atoms, family_program.program.num_atoms
            )
            stats.total_rules += len(family_program.program)

            batch: list[_SignatureGroup] = []
            batch_atoms: set[int] = set()
            for member in members:
                member_trivial = {
                    candidate
                    for candidate in member.unresolved
                    if candidate in family_program.trivially_certain
                }
                accepted |= member_trivial
                member.xr_program = XRProgram(
                    program=_EMPTY_PROGRAM,
                    trivially_certain=member_trivial,
                )
                member.solve_atoms = {
                    candidate: family_program.query_atoms[candidate]
                    for candidate in member.unresolved
                    if candidate in family_program.query_atoms
                    and candidate not in member_trivial
                }
                if member.solve_atoms:
                    batch.append(member)
                    batch_atoms.update(member.solve_atoms.values())
                else:
                    # Fully decided without search (trivially certain or
                    # out of scope): cacheable right now.
                    self._finalize_group(member, set(), mode)
            if not batch:
                continue
            family_batches.append(batch)
            tasks.append(
                SolveTask(
                    program=PackedProgram.pack(family_program.program),
                    query_atom_ids=tuple(sorted(batch_atoms)),
                    mode=mode,
                    budget=budget,
                    trace=trace,
                    family=True,
                )
            )
        return family_batches, tasks

    def _finalize_group(
        self, group: _SignatureGroup, solver_accepted: set[Fact], mode: str
    ) -> None:
        """Record cache entries once a group's verdicts are complete."""
        if self.cache is None:
            return
        accepted = (
            group.accepted_so_far
            | solver_accepted
            | group.xr_program.trivially_certain
        )
        for candidate, memo_key in group.decision_keys.items():
            self.cache.store_decision(
                group.signature, self.encoding, mode, memo_key,
                candidate in accepted,
            )
        self.cache.store_program(group.key, accepted)
