"""Single-flight cold solving on a shared engine.

Concurrent queries that miss on the same signature program share one
build and one solve: the first claims the program key, the rest wait on
its flight and take the published verdicts.  Family-program
construction is gated through the ``build_family_program`` seam, so
every interleaving below is forced, not hoped for.  Every join and wait is bounded: a
deadlock fails the test instead of hanging it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.metrics import Metrics
from repro.obs.recorder import Recorder
from repro.obs.tracing import NOOP_TRACER
from repro.parser import parse_mapping, parse_program
from repro.relational import Fact, Instance
from repro.runtime.budget import SolveBudget, SolveBudgetExceeded
from repro.runtime.cache import ProgramFlight, SignatureProgramCache
from repro.xr import segmentary
from repro.xr.segmentary import SegmentaryEngine

TIMEOUT = 10.0
THREADS = 6


def f(rel, *args):
    return Fact(rel, args)


MAPPING = parse_mapping(
    """
    SOURCE R/2. TARGET P/2.
    R(x, y) -> P(x, y).
    P(x, y), P(x, z) -> y = z.
    """
)
ONE_CLUSTER = [f("R", "a", "b"), f("R", "a", "c"), f("R", "s", "t")]
TWO_CLUSTERS = ONE_CLUSTER + [f("R", "d", "e"), f("R", "d", "g")]
QUERY = parse_program("q(x, y) :- P(x, y).")


def sequential(facts, query, mode):
    with SegmentaryEngine(MAPPING, Instance(facts)) as engine:
        return engine.answer_with_stats(query, mode=mode)[0]


class Builds:
    """Counts family-program builds; the first one blocks until
    ``proceed`` is set, and then raises if ``fail_first``."""

    def __init__(self, monkeypatch, gate_first=True, fail_first=False):
        self.calls = 0
        self.started = threading.Event()
        self.proceed = threading.Event()
        if not gate_first:
            self.proceed.set()
        lock = threading.Lock()
        real = segmentary.build_family_program

        def gated(*args, **kwargs):
            with lock:
                self.calls += 1
                first = self.calls == 1
            if first:
                self.started.set()
                assert self.proceed.wait(TIMEOUT), "gate never opened"
                if fail_first:
                    raise RuntimeError("injected build failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(segmentary, "build_family_program", gated)


class Waits:
    """Counts entries into :meth:`ProgramFlight.wait`."""

    def __init__(self, monkeypatch):
        self.count = 0
        self._changed = threading.Condition()
        real = ProgramFlight.wait

        def counting(flight, timeout=None):
            with self._changed:
                self.count += 1
                self._changed.notify_all()
            return real(flight, timeout)

        monkeypatch.setattr(ProgramFlight, "wait", counting)

    def reach(self, count: int) -> None:
        with self._changed:
            assert self._changed.wait_for(
                lambda: self.count >= count, TIMEOUT
            ), f"only {self.count} of {count} waits started"


class Caller(threading.Thread):
    """One query on its own thread; keeps its result or its exception."""

    def __init__(self, engine, query, mode="certain", **kwargs):
        super().__init__(daemon=True)
        self.engine, self.query, self.mode = engine, query, mode
        self.kwargs = kwargs
        self.result = self.error = None
        self.seconds = 0.0

    def run(self) -> None:
        started = time.monotonic()
        try:
            self.result = self.engine.answer_with_stats(
                self.query, mode=self.mode, **self.kwargs
            )
        except BaseException as exc:  # noqa: BLE001 — reported by the test
            self.error = exc
        self.seconds = time.monotonic() - started

    def finish(self):
        self.join(TIMEOUT)
        assert not self.is_alive(), "query thread still running (deadlock?)"
        return self


@pytest.mark.parametrize("mode", ["certain", "possible"])
def test_concurrent_cold_query_builds_once(monkeypatch, mode):
    expected = sequential(ONE_CLUSTER, QUERY, mode)
    builds = Builds(monkeypatch)
    waits = Waits(monkeypatch)
    metrics = Metrics()
    engine = SegmentaryEngine(
        MAPPING, Instance(ONE_CLUSTER),
        obs=Recorder(tracer=NOOP_TRACER, metrics=metrics),
    )
    engine.exchange()
    callers = [Caller(engine, QUERY, mode) for _ in range(THREADS)]
    for caller in callers:
        caller.start()
    assert builds.started.wait(TIMEOUT)
    waits.reach(THREADS - 1)  # everyone else joined the owner's flight
    builds.proceed.set()
    for caller in callers:
        caller.finish()
        assert caller.error is None
        answers, _stats = caller.result
        assert answers == expected
    assert builds.calls == 1
    assert sorted(c.result[1].coalesced for c in callers) == (
        [0] + [1] * (THREADS - 1)
    )
    assert sum(c.result[1].programs_solved for c in callers) == 1
    exported = metrics.as_dict()
    assert exported["counters"]["cache_program_coalesced_total"] == (
        THREADS - 1
    )
    assert exported["histograms"]["cache_program_coalesce_wait_seconds"][
        "count"
    ] == THREADS - 1
    assert engine.cache._flights == {}


def test_owner_failure_releases_waiters_who_then_solve(monkeypatch):
    expected = sequential(ONE_CLUSTER, QUERY, "possible")
    builds = Builds(monkeypatch, fail_first=True)
    waits = Waits(monkeypatch)
    engine = SegmentaryEngine(MAPPING, Instance(ONE_CLUSTER))
    engine.exchange()
    owner = Caller(engine, QUERY, "possible")
    owner.start()
    assert builds.started.wait(TIMEOUT)
    waiters = [Caller(engine, QUERY, "possible") for _ in range(3)]
    for waiter in waiters:
        waiter.start()
    waits.reach(3)
    builds.proceed.set()
    assert isinstance(owner.finish().error, RuntimeError)
    for waiter in waiters:
        waiter.finish()
        assert waiter.error is None
        assert waiter.result[0] == expected
        assert not waiter.result[1].degraded
    # The owner's build failed; exactly one waiter built again, and the
    # others took its verdicts (from its flight or from the cache).
    assert builds.calls == 2
    assert sum(w.result[1].programs_solved for w in waiters) == 1
    assert engine.cache._flights == {}


def test_owner_timeout_releases_waiters_who_then_solve(monkeypatch):
    exact = sequential(ONE_CLUSTER, QUERY, "certain")
    builds = Builds(monkeypatch)
    waits = Waits(monkeypatch)
    engine = SegmentaryEngine(MAPPING, Instance(ONE_CLUSTER))
    engine.exchange()
    owner = Caller(
        engine, QUERY, allow_partial=True,
        budget=SolveBudget(deadline=0.2),
    )
    owner.start()
    assert builds.started.wait(TIMEOUT)
    waiters = [Caller(engine, QUERY) for _ in range(3)]
    for waiter in waiters:
        waiter.start()
    waits.reach(3)
    time.sleep(0.3)  # the owner's deadline passes inside its build
    builds.proceed.set()
    owner.finish()
    answers, stats = owner.result
    assert stats.degraded
    assert stats.unknown_candidates == {("a", "b"), ("a", "c")}
    assert answers <= exact <= answers | stats.unknown_candidates
    for waiter in waiters:
        waiter.finish()
        assert waiter.error is None
        assert waiter.result[0] == exact
        assert not waiter.result[1].degraded
    assert builds.calls == 2


@pytest.mark.parametrize("allow_partial", [True, False])
def test_waiter_deadline_bounds_its_wait(monkeypatch, allow_partial):
    keys = parse_program("q(x) :- P(x, y).")
    exact = sequential(ONE_CLUSTER, keys, "certain")
    assert exact == {("a",), ("s",)}
    builds = Builds(monkeypatch)
    engine = SegmentaryEngine(MAPPING, Instance(ONE_CLUSTER))
    engine.exchange()
    owner = Caller(engine, keys)
    owner.start()
    assert builds.started.wait(TIMEOUT)
    deadline = 0.3
    waiter = Caller(
        engine, keys, allow_partial=allow_partial,
        budget=SolveBudget(deadline=deadline),
    )
    waiter.start()
    waiter.finish()  # while the owner is still held at the gate
    assert deadline <= waiter.seconds < deadline + 1.0
    if allow_partial:
        assert waiter.error is None
        answers, stats = waiter.result
        assert stats.degraded and stats.timeouts == 1
        assert answers == {("s",)}
        assert stats.unknown_candidates == {("a",)}
    else:
        assert isinstance(waiter.error, SolveBudgetExceeded)
    assert len(engine.cache) == 0  # the waiter cached nothing
    builds.proceed.set()
    owner.finish()
    assert owner.error is None and owner.result[0] == exact
    assert builds.calls == 1


def test_opposite_claim_orders_do_not_deadlock(monkeypatch):
    """Two queries over the same two programs, probed in opposite
    orders: each owns one key and needs the other's.  Neither waits
    while it owns a claim, so both finish."""
    forward = parse_program("q(y) :- P('a', y). q(y) :- P('d', y).")
    backward = parse_program("q(y) :- P('d', y). q(y) :- P('a', y).")
    expected = sequential(TWO_CLUSTERS, forward, "possible")
    assert expected == sequential(TWO_CLUSTERS, backward, "possible")
    assert expected == {("b",), ("c",), ("e",), ("g",)}
    builds = Builds(monkeypatch, gate_first=False)
    in_step = threading.Barrier(2)
    probes: dict[int, list] = {}
    real = SignatureProgramCache.lookup_or_claim

    def interleaved(cache, key):
        probe = real(cache, key)
        mine = probes.setdefault(threading.get_ident(), [])
        mine.append((sorted(key[0]), probe.owns))
        if len(mine) <= 2:
            # Both claim their first key, then both find the other's
            # claim on their second, before either builds anything.
            in_step.wait(TIMEOUT)
        return probe

    monkeypatch.setattr(SignatureProgramCache, "lookup_or_claim", interleaved)
    engine = SegmentaryEngine(MAPPING, Instance(TWO_CLUSTERS))
    engine.exchange()
    callers = [
        Caller(engine, forward, "possible"),
        Caller(engine, backward, "possible"),
    ]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.finish()
        assert caller.error is None
        assert caller.result[0] == expected
        assert caller.result[1].coalesced == 1
    assert builds.calls == 2
    for sequence in probes.values():
        assert [owns for _key, owns in sequence] == [True, False]
    assert engine.cache._flights == {}


def test_without_a_cache_nothing_waits(monkeypatch):
    expected = sequential(ONE_CLUSTER, QUERY, "certain")
    builds = Builds(monkeypatch, gate_first=False)

    def never(flight, timeout=None):
        raise AssertionError("an uncached engine waited on a flight")

    monkeypatch.setattr(ProgramFlight, "wait", never)
    engine = SegmentaryEngine(MAPPING, Instance(ONE_CLUSTER), cache=False)
    engine.exchange()
    callers = [Caller(engine, QUERY) for _ in range(THREADS)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.finish()
        assert caller.error is None
        assert caller.result[0] == expected
        assert caller.result[1].coalesced == 0
    assert builds.calls == THREADS
