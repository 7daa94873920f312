"""Single-flight claims on :class:`SignatureProgramCache`.

``lookup_or_claim`` decides in one locked step whether a caller hits,
owns the key, or joins another caller's :class:`ProgramFlight`; the
owner publishes through ``store_program`` and always ends with
``release``.  These tests pin that protocol at the cache level; the
engine-level behavior (who waits, deadlines, rounds) is in
``tests/test_xr/test_coalescing.py``.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from repro.relational.instance import Fact
from repro.runtime.cache import SignatureProgramCache, program_key

TIMEOUT = 10.0


def key(index: int):
    return program_key(
        frozenset({index}),
        "repair",
        "certain",
        [(Fact("q", (index,)), (Fact("r", (index,)),))],
    )


def value(index: int) -> frozenset[Fact]:
    return frozenset({Fact("q", (index,))})


class TestProtocol:
    def test_first_miss_owns_later_misses_join(self):
        cache = SignatureProgramCache()
        owner = cache.lookup_or_claim(key(0))
        assert owner.accepted is None and owner.owns
        joiner = cache.lookup_or_claim(key(0))
        assert joiner.accepted is None and not joiner.owns
        assert joiner.flight is owner.flight
        assert not joiner.flight.wait(0)
        # Another key is independent.
        assert cache.lookup_or_claim(key(1)).owns

    def test_store_publishes_to_waiters_then_hits(self):
        cache = SignatureProgramCache()
        owner = cache.lookup_or_claim(key(0))
        joiner = cache.lookup_or_claim(key(0))
        cache.store_program(key(0), value(0))
        assert joiner.flight.wait(0)
        assert joiner.flight.value == value(0)
        cache.release(owner.flight)  # after publishing: a no-op
        assert joiner.flight.value == value(0)
        probe = cache.lookup_or_claim(key(0))
        assert probe.accepted == value(0) and probe.flight is None

    def test_release_without_value_lets_the_next_caller_claim(self):
        cache = SignatureProgramCache()
        owner = cache.lookup_or_claim(key(0))
        joiner = cache.lookup_or_claim(key(0))
        cache.release(owner.flight)
        assert joiner.flight.wait(0)
        assert joiner.flight.value is None
        again = cache.lookup_or_claim(key(0))
        assert again.owns and again.flight is not owner.flight
        # A late second release of the old flight leaves the new claim.
        cache.release(owner.flight)
        assert cache.lookup_or_claim(key(0)).flight is again.flight

    def test_value_survives_lru_eviction_on_the_flight(self):
        cache = SignatureProgramCache(max_programs=1)
        cache.lookup_or_claim(key(0))
        joiner = cache.lookup_or_claim(key(0))
        cache.store_program(key(0), value(0))
        cache.store_program(key(1), value(1))  # evicts key(0)
        assert cache.lookup_program(key(0)) is None
        assert joiner.flight.value == value(0)

    def test_hits_and_misses_are_counted_once_per_probe(self):
        cache = SignatureProgramCache()
        cache.lookup_or_claim(key(0))
        cache.lookup_or_claim(key(0))
        cache.store_program(key(0), value(0))
        cache.lookup_or_claim(key(0))
        assert (cache.stats.program_hits, cache.stats.program_misses) == (1, 2)


def test_hammer_exactly_one_owner_per_key():
    """Eight threads probe the same keys at once; a lost update in the
    claim step would make two owners of one key, or leave a waiter with
    a value other than the published one."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cache = SignatureProgramCache()
        keys = 200
        owners: Counter = Counter()
        errors: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait(TIMEOUT)
            for index in range(keys):
                probe = cache.lookup_or_claim(key(index))
                if probe.owns:
                    with lock:
                        owners[index] += 1
                    try:
                        cache.store_program(key(index), value(index))
                    finally:
                        cache.release(probe.flight)
                elif probe.flight is not None:
                    if not probe.flight.wait(TIMEOUT):
                        errors.append(f"wait on key {index} timed out")
                    elif probe.flight.value != value(index):
                        errors.append(f"key {index}: {probe.flight.value}")
                elif probe.accepted != value(index):
                    errors.append(f"key {index} hit {probe.accepted}")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert owners == Counter(range(keys))
        assert cache._flights == {}
    finally:
        sys.setswitchinterval(previous)
