"""Cross-query caching for the segmentary query phase.

Two layers, both exact (never approximate — a hit returns precisely what a
fresh solve would have returned):

**Signature-program cache.**  Keyed by
``(signature, encoding, mode, frozenset(query_groundings))`` — the complete
input of one per-signature program.  A warm engine answering the same query
again (the pattern of ``run_query_suite`` and the Table 3 suite) hits this
layer and skips program construction *and* solving.

**Per-cluster decision memo.**  Keyed by ``(signature, encoding, mode,
focus-support structure)`` → ``accepted?``.  A candidate's acceptance
depends only on the repair core of its signature's clusters and on its
support sets restricted to the focus (safe facts are represented by *true*
and drop out) — not on the query's name or answer tuple.  Two different
queries whose candidates project onto the same focus-support structure
therefore share decisions; the memo is coarser than the program cache and
hits across queries that are merely structurally similar.  Validity rests
on cluster independence (Definition 8): query atoms never feed back into
the repair core, so each candidate is decided independently within its
signature program.

**Bounded memory (LRU).**  Both layers accept an optional capacity; when
an insert would exceed it, the least-recently-*used* entry is evicted
(lookups and stores both refresh recency).  Eviction never changes
answers — a later query that would have hit the evicted entry simply
rebuilds and re-solves — so the policy is answer-neutral by construction,
and a long-lived process (the ROADMAP's serving tier) gets a bounded
footprint.  Evictions are counted in :class:`CacheStats` and, when a
metrics registry is attached, in ``cache_program_evictions_total`` /
``cache_decision_evictions_total``.

**Cluster-keyed invalidation.**  Every key embeds the signature — the set
of violation-cluster ids whose meaning is fixed by the engine's
:class:`~repro.xr.envelope.EnvelopeAnalysis`.  Incremental maintenance
(:mod:`repro.incremental`) retires the ids of clusters an update touched
and mints fresh ids for their replacements; :meth:`invalidate_clusters`
then drops exactly the entries whose signature meets the retired set,
so decisions about *unaffected* clusters survive the update.

**Thread safety.**  One cache is shared by every query running on a warm
engine — under the serving tier (:mod:`repro.serve`) those queries run on
*concurrent threads*.  LRU recency maintenance mutates the underlying
dicts on **lookup** (delete + re-insert), so even the read path writes;
all operations therefore take one internal lock.  The critical sections
are a few dict operations each, so the single-threaded overhead is one
uncontended acquire per call — negligible next to program construction,
and far cheaper than the torn-LRU ``KeyError`` crashes (or silently
corrupted recency chains) concurrent unlocked lookups produce.

**Single flight.**  Two queries missing on the same program key at once
would both build and solve the same program.  :meth:`lookup_or_claim`
instead decides, in one step under the lock, whether the caller has a
hit, becomes the key's *owner*, or gets the :class:`ProgramFlight` of
another query's in-flight solve.  The owner publishes through
:meth:`store_program`, which hands the value to the flight itself (so
LRU eviction cannot lose it before a waiter reads it), and it always
ends with :meth:`release`, which wakes the waiters with no value when
nothing was published (a timeout, a partial family, an exception).  A
waiter that wakes empty-handed probes again and may claim the key
itself.  Deadlock freedom is the caller's rule: never wait on a flight
while owning one (DESIGN §13).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Container, Iterable, NamedTuple

from repro.relational.instance import Fact

#: A candidate's supports restricted to the focus: a set of support sets.
DecisionKey = frozenset[frozenset[Fact]]
#: The full input of one signature program.
ProgramKey = tuple[
    frozenset[int], str, str, frozenset[tuple[Fact, tuple[Fact, ...]]]
]


def decision_key(
    supports: Iterable[tuple[Fact, ...]], safe: Container[Fact]
) -> DecisionKey:
    """The focus-support structure of one candidate (memo key)."""
    return frozenset(
        frozenset(fact for fact in support if fact not in safe)
        for support in supports
    )


def program_key(
    signature: frozenset[int],
    encoding: str,
    mode: str,
    query_groundings: Iterable[tuple[Fact, tuple[Fact, ...]]],
) -> ProgramKey:
    """The cache key of one signature program."""
    return (signature, encoding, mode, frozenset(query_groundings))


class ProgramFlight:
    """One in-flight solve of a program key.

    Created by :meth:`SignatureProgramCache.lookup_or_claim` for the
    query that claims the key; every other query missing on the key
    while it is in flight gets the same object and waits on it.
    ``value`` is the published accepted set, or ``None`` when the owner
    released the key without publishing.
    """

    __slots__ = ("key", "value", "_done")

    def __init__(self, key: ProgramKey) -> None:
        self.key = key
        self.value: frozenset[Fact] | None = None
        self._done = threading.Event()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until published or released (or ``timeout`` seconds
        pass); True when the flight is over."""
        return self._done.wait(timeout)


class ProgramProbe(NamedTuple):
    """The outcome of :meth:`SignatureProgramCache.lookup_or_claim`:
    ``accepted`` on a hit; otherwise the key's ``flight``, which the
    caller ``owns`` (it must solve, publish and release) or awaits."""

    accepted: frozenset[Fact] | None
    flight: ProgramFlight | None = None
    owns: bool = False


@dataclass
class CacheStats:
    """Cumulative hit/miss/eviction counters (lifetime of the cache)."""

    program_hits: int = 0
    program_misses: int = 0
    decision_hits: int = 0
    decision_misses: int = 0
    program_evictions: int = 0
    decision_evictions: int = 0
    invalidated: int = 0


class SignatureProgramCache:
    """The two cache layers plus their counters; one per warm engine.

    Entries are valid for the lifetime of one exchange phase *or*, under
    :mod:`repro.incremental` maintenance, until the update session retires
    a cluster id appearing in their signature (``invalidate_clusters``).
    Re-running the exchange from scratch (a new engine) must still start
    from an empty cache.

    ``max_programs`` / ``max_decisions`` bound each layer; ``None`` (the
    default) keeps the historical unbounded behavior.  Eviction is LRU
    and answer-neutral.  An optional ``metrics``
    (:class:`~repro.obs.metrics.Metrics`) registry receives eviction
    counters so long-lived processes can watch cache pressure.
    """

    def __init__(
        self,
        max_programs: int | None = None,
        max_decisions: int | None = None,
    ) -> None:
        if max_programs is not None and max_programs < 1:
            raise ValueError(f"max_programs must be >= 1, got {max_programs}")
        if max_decisions is not None and max_decisions < 1:
            raise ValueError(f"max_decisions must be >= 1, got {max_decisions}")
        self.max_programs = max_programs
        self.max_decisions = max_decisions
        # One lock for both layers, the in-flight table and the counters:
        # lookups mutate the dicts too (LRU delete + re-insert), so readers
        # and writers must exclude each other.  Never held while calling
        # out — the metrics registry has its own lock and is incremented
        # outside ours.  Reentrant so that ``lookup_or_claim`` can probe
        # through ``lookup_program`` inside its own critical section.
        self._lock = threading.RLock()
        # Python dicts preserve insertion order; LRU recency is maintained
        # by deleting + re-inserting on every touch, and eviction pops the
        # oldest entry (next(iter(...))).
        self._programs: dict[ProgramKey, frozenset[Fact]] = {}
        self._decisions: dict[
            tuple[frozenset[int], str, str, DecisionKey], bool
        ] = {}
        # Keys claimed by a query that is building and solving them.
        self._flights: dict[ProgramKey, ProgramFlight] = {}
        self.stats = CacheStats()
        self.metrics = None  # optional repro.obs Metrics registry

    # ---------------------------------------------------- program layer

    def lookup_program(self, key: ProgramKey) -> frozenset[Fact] | None:
        with self._lock:
            accepted = self._programs.get(key)
            if accepted is None:
                self.stats.program_misses += 1
            else:
                self.stats.program_hits += 1
                if self.max_programs is not None:
                    # Refresh recency (move to the back of the dict).
                    del self._programs[key]
                    self._programs[key] = accepted
        return accepted

    def lookup_or_claim(self, key: ProgramKey) -> ProgramProbe:
        """A hit, a claim on ``key``, or another query's flight for it —
        decided in one step, so two missing queries never both own it."""
        with self._lock:
            accepted = self.lookup_program(key)
            if accepted is not None:
                return ProgramProbe(accepted)
            flight = self._flights.get(key)
            if flight is not None:
                return ProgramProbe(None, flight)
            flight = self._flights[key] = ProgramFlight(key)
            return ProgramProbe(None, flight, owns=True)

    def release(self, flight: ProgramFlight) -> None:
        """End a claim: waiters wake, empty-handed unless a value was
        published.  Idempotent, so callers release in ``finally``."""
        with self._lock:
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
        flight._done.set()

    def store_program(self, key: ProgramKey, accepted: Iterable[Fact]) -> None:
        value = frozenset(accepted)
        evicted = False
        with self._lock:
            flight = self._flights.pop(key, None)
            if flight is not None:
                # Published on the flight too: its waiters read it there
                # even if the entry below is evicted before they wake.
                flight.value = value
                flight._done.set()
            if key in self._programs:
                del self._programs[key]
            self._programs[key] = value
            if (
                self.max_programs is not None
                and len(self._programs) > self.max_programs
            ):
                self._programs.pop(next(iter(self._programs)))
                self.stats.program_evictions += 1
                evicted = True
        if evicted and self.metrics is not None:
            self.metrics.inc("cache_program_evictions_total")

    # --------------------------------------------------- decision layer

    def lookup_decision(
        self,
        signature: frozenset[int],
        encoding: str,
        mode: str,
        key: DecisionKey,
    ) -> bool | None:
        full_key = (signature, encoding, mode, key)
        with self._lock:
            verdict = self._decisions.get(full_key)
            if verdict is None:
                self.stats.decision_misses += 1
            else:
                self.stats.decision_hits += 1
                if self.max_decisions is not None:
                    del self._decisions[full_key]
                    self._decisions[full_key] = verdict
        return verdict

    def store_decision(
        self,
        signature: frozenset[int],
        encoding: str,
        mode: str,
        key: DecisionKey,
        accepted: bool,
    ) -> None:
        full_key = (signature, encoding, mode, key)
        evicted = False
        with self._lock:
            if full_key in self._decisions:
                del self._decisions[full_key]
            self._decisions[full_key] = accepted
            if (
                self.max_decisions is not None
                and len(self._decisions) > self.max_decisions
            ):
                self._decisions.pop(next(iter(self._decisions)))
                self.stats.decision_evictions += 1
                evicted = True
        if evicted and self.metrics is not None:
            self.metrics.inc("cache_decision_evictions_total")

    # -------------------------------------------------- invalidation

    def invalidate_clusters(self, cluster_ids: Iterable[int]) -> int:
        """Drop every entry whose signature meets ``cluster_ids``.

        Called by :mod:`repro.incremental` with the ids of clusters an
        update retired (touched clusters get fresh ids).  Entries whose
        signature is disjoint from the retired set describe clusters whose
        repair structure is object-identical after the update, so they
        stay valid and survive.  Returns the number of entries dropped.
        """
        retired = frozenset(cluster_ids)
        if not retired:
            return 0
        with self._lock:
            dead_programs = [
                key for key in self._programs if not retired.isdisjoint(key[0])
            ]
            for key in dead_programs:
                del self._programs[key]
            dead_decisions = [
                key
                for key in self._decisions
                if not retired.isdisjoint(key[0])
            ]
            for key in dead_decisions:
                del self._decisions[key]
            dropped = len(dead_programs) + len(dead_decisions)
            self.stats.invalidated += dropped
        if self.metrics is not None and dropped:
            self.metrics.inc("cache_invalidated_entries_total", dropped)
        return dropped

    # ------------------------------------------------------------ misc

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self._decisions.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs) + len(self._decisions)
