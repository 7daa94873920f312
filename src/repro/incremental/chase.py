"""Semi-naive delta-chase over materialized exchange data.

Maintains the chased instance, the grounding list, and the violation list
of an :class:`~repro.xr.exchange.ExchangeData` under one normalized
:class:`~repro.incremental.delta.Delta`, without re-running the chase or
the grounding/violation joins from scratch.  The joins run on the update
session's :class:`~repro.chase.batch.ChaseState` — the same resumable
batch chase that built the exchange, kept alive over ``data.chased``:

**Retraction** is exact liveness over recorded provenance: the facts
derivable from the remaining sources are recomputed by count-down
propagation over the grounding adjacency
(:func:`~repro.xr.envelope.derivable_ids`, Dowling–Gallier); everything
chased but no longer derivable is dead, and is retracted from the state.
A grounding dies iff any body fact dies (a live body forces a live head),
a violation iff any body fact dies.

**Insertion** extends the state from the inserted facts.  Its strict
rounds split every join into old and new, so every binding that uses an
inserted or derived fact is found exactly once — and none of them can
already be live, because each such fact was absent before the delta (a
dead fact's groundings died with it).  No dedup set is needed.  New
violations come from the egd pivot plans of the same state, with the
same split over the delta's new facts; they are deduplicated against the
live set by the canonical :func:`~repro.xr.exchange.violation_key`, since
the two orientations of a symmetric egd are still two bindings.

Every order is fixed by construction, whatever ``PYTHONHASHSEED`` is:
new facts are interned in repr order, new groundings appended in
:func:`~repro.xr.exchange._build_fact_indexes`'s (rule position, head
id, body ids) order, new violations in canonical order.

Adjacency indexes are maintained **in place** (swap-remove on deletion,
append on insertion — see :func:`~repro.xr.exchange.remove_groundings`);
a delta costs work proportional to what it touched, not to the exchange
size.  Fact ids are **stable**: dead facts keep their interned id with
adjacency rows drained, so a later re-insertion rejoins the same id and
every id-keyed artifact — envelopes, signatures, cache keys — stays
meaningful across the whole update session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chase.batch import ChaseState
from repro.xr.envelope import derivable_ids
from repro.xr.exchange import (
    ExchangeData,
    Violation,
    append_grounding,
    append_violation,
    canonicalize_violations,
    remove_groundings,
    remove_violations,
    violation_key,
)

from repro.incremental.delta import Delta


@dataclass
class DeltaChaseReport:
    """What one delta did to the fact-level exchange state (in id space)."""

    new_ids: set[int] = field(default_factory=set)
    dead_ids: set[int] = field(default_factory=set)
    added_groundings: int = 0
    removed_groundings: int = 0
    # Ids of every fact of an added grounding (bodies may be old facts:
    # they mark where new derivations attach) and heads of removed ones.
    added_grounding_fact_ids: set[int] = field(default_factory=set)
    removed_grounding_head_ids: set[int] = field(default_factory=set)
    new_violations: list[Violation] = field(default_factory=list)
    dead_violations: list[Violation] = field(default_factory=list)

    def dirty_ids(self) -> set[int]:
        """Every fact id whose derivation neighborhood the delta changed —
        the conservative support of the delta for cluster-touch tests."""
        return (
            self.new_ids
            | self.dead_ids
            | self.added_grounding_fact_ids
            | self.removed_grounding_head_ids
        )


def apply_delta_chase(
    data: ExchangeData,
    delta: Delta,
    state: ChaseState,
    violation_keys: set,
) -> DeltaChaseReport:
    """Apply a **normalized** delta to ``data`` in place.

    Mutates ``data.source_instance`` / ``data.chased`` (the ``state``'s
    work instance) / ``data.groundings`` / ``data.violations``, keeps
    ``violation_keys`` (the canonical keys of the live violations) in
    sync, and maintains the adjacency indexes in place (fact ids stay
    stable).  Returns the id-space report the cluster maintenance layer
    works from.
    """
    report = DeltaChaseReport()
    source = data.source_instance
    chased = data.chased
    fact_ids = data.fact_ids

    # ------------------------------------------------------- retraction
    if delta.retracts:
        remaining_ids = {
            fact_ids[f] for f in source if f not in delta.retracts
        }
        alive = derivable_ids(remaining_ids, data)
        chased_ids = {fact_ids[f] for f in chased}
        report.dead_ids = chased_ids - alive

    if report.dead_ids:
        dead = report.dead_ids
        # Every grounding with a dead body fact (the per-fact adjacency
        # rows enumerate them directly) dies; likewise every violation.
        # Groundings whose head is dead always have a dead body too (a
        # fully-live body would keep the head derivable), so the body rows
        # find everything.
        dead_grounding_positions: set[int] = set()
        dead_violation_positions: set[int] = set()
        for fact_id in dead:
            dead_grounding_positions.update(data.occurs_in_body[fact_id])
            dead_violation_positions.update(data.violations_by_fact[fact_id])
        for index in dead_grounding_positions:
            report.removed_groundings += 1
            report.removed_grounding_head_ids.add(data.grounding_heads[index])
        remove_groundings(data, dead_grounding_positions)
        for index in dead_violation_positions:
            violation = data.violations[index]
            report.dead_violations.append(violation)
            violation_keys.discard(violation_key(violation))
        remove_violations(data, dead_violation_positions)

        facts_by_id = data.facts_by_id
        state.retract(facts_by_id[fact_id] for fact_id in dead)
    for fact in delta.retracts:
        source.discard(fact)

    # -------------------------------------------------------- insertion
    if delta.inserts:
        for fact in delta.inserts:
            source.add(fact)
        inserted = state.insert(sorted(delta.inserts, key=repr))
        since = state.arrival
        found: list[tuple] = []
        _rounds, derived = state.extend(inserted, found)
        new_facts = inserted + derived
        for fact in sorted(new_facts, key=repr):
            report.new_ids.add(data.intern_fact(fact))

        id_of = data.fact_ids.__getitem__
        position_of = {id(rule): index for index, rule in enumerate(state.rules)}
        found.sort(
            key=lambda grounding: (
                position_of[id(grounding[0])],
                id_of(grounding[2]),
                tuple(map(id_of, grounding[1])),
            )
        )
        for grounding in found:
            head_id, body_ids = append_grounding(data, grounding)
            report.added_groundings += 1
            report.added_grounding_fact_ids.add(head_id)
            report.added_grounding_fact_ids.update(body_ids)

        for violation in canonicalize_violations(
            state.violations(new_facts, since)
        ):
            key = violation_key(violation)
            if key in violation_keys:
                continue
            violation_keys.add(key)
            append_violation(data, violation)
            report.new_violations.append(violation)

    # Memoized forward closures are stale wherever the delta touched the
    # grounding graph; they repopulate lazily on the next cluster build.
    data._influence_cache.clear()
    return report
