"""Shared exchange computation: quasi-solution, groundings, violations.

Both query engines start the same way (for a reduced ``gav+(gav, egd)``
mapping), on the batch operators of :mod:`repro.chase.batch`:

- chase the source instance with the tgds only — the **canonical
  quasi-solution** of Definition 2;
- enumerate every grounding of every tgd over the chased instance — these
  are the **support sets** of Definition 4;
- enumerate every grounded egd with a satisfied body, and mark as
  **violations** those whose equality fails (for constants-only egds, only
  clashes between two distinct constants count — skolem values stand for
  nulls, which the original chase would simply unify).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.chase.batch import batch_chase, find_violations_batch
from repro.dependencies.egds import EGD
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.dependencies.mapping import SchemaMapping
from repro.dependencies.tgds import TGD
from repro.relational.instance import Fact, Instance


@dataclass(frozen=True)
class Violation:
    """A grounded egd with satisfied body and a failing equality."""

    egd: EGD
    body_facts: tuple[Fact, ...]
    lhs_value: object
    rhs_value: object

    def __repr__(self) -> str:
        return (
            f"Violation({self.egd.label}: {self.lhs_value!r} ≠ {self.rhs_value!r} "
            f"from {list(self.body_facts)})"
        )


@dataclass
class ExchangeData:
    """The query-independent exchange computation for a gav mapping.

    Besides the fact-level artifacts (chase, groundings, violations), the
    exchange data owns an **interned integer universe**: every chased fact
    gets a dense id, and all adjacency needed by the closures and program
    builders is precomputed as int-keyed arrays — ``groundings_by_head``
    (grounding indexes with the fact as head; support sets flowing
    *backward*), ``occurs_in_body`` (grounding indexes with the fact in
    the body; influence flowing *forward*), and ``violations_by_fact``.
    Downstream hot loops traverse these arrays instead of re-hashing
    :class:`Fact` tuples or rescanning the grounding/violation lists.
    """

    mapping: SchemaMapping
    source_instance: Instance
    chased: Instance  # I ∪ J: source facts plus the canonical quasi-solution
    groundings: list[tuple[TGD, tuple[Fact, ...], Fact]]
    violations: list[Violation]
    # ----------------------------------------------- interned universe
    # fact -> dense id (0-based) and its inverse.
    fact_ids: dict[Fact, int] = field(default_factory=dict)
    facts_by_id: list[Fact] = field(default_factory=list)
    # Per grounding: deduplicated body fact ids (first-occurrence order)
    # and the head fact id.
    grounding_bodies: list[tuple[int, ...]] = field(default_factory=list)
    grounding_heads: list[int] = field(default_factory=list)
    # fact id -> grounding indexes (head side / body side).
    groundings_by_head: list[list[int]] = field(default_factory=list)
    occurs_in_body: list[list[int]] = field(default_factory=list)
    # Per violation: deduplicated body fact ids; fact id -> violation idxs.
    violation_bodies: list[tuple[int, ...]] = field(default_factory=list)
    violations_by_fact: list[list[int]] = field(default_factory=list)
    # fact id -> True iff the fact belongs to a source relation.
    source_id_mask: list[bool] = field(default_factory=list)
    # Memoized per-fact forward closures (influence of a single fact);
    # shared by every program build over this exchange data.
    _influence_cache: dict[int, frozenset[int]] = field(default_factory=dict)
    _source_names: frozenset[str] = field(
        default_factory=frozenset, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self._source_names = frozenset(self.mapping.source.names())

    @property
    def source_facts(self) -> set[Fact]:
        return set(self.source_instance)

    def target_facts(self) -> set[Fact]:
        source_names = self.mapping.source.names()
        return {f for f in self.chased if f.relation not in source_names}

    def quasi_solution(self) -> Instance:
        """The canonical quasi-solution (target restriction of the chase)."""
        return self.chased.restrict(self.mapping.target.names())

    # ------------------------------------------------- interning helpers

    def intern_fact(self, fact: Fact) -> int:
        """The id of ``fact``, extending the universe if it is new.

        Facts outside the chased instance (only seen when callers pass
        hand-built focus/safe sets) get fresh ids with empty adjacency, so
        membership tests against them behave like the old set-of-Fact
        code paths.
        """
        fact_id = self.fact_ids.get(fact)
        if fact_id is None:
            fact_id = len(self.facts_by_id)
            self.fact_ids[fact] = fact_id
            self.facts_by_id.append(fact)
            self.groundings_by_head.append([])
            self.occurs_in_body.append([])
            self.violations_by_fact.append([])
            self.source_id_mask.append(fact.relation in self._source_names)
        return fact_id

    def id_of(self, fact: Fact) -> int | None:
        return self.fact_ids.get(fact)

    def fact_of(self, fact_id: int) -> Fact:
        return self.facts_by_id[fact_id]

    def id_set(self, facts) -> set[int]:
        """Intern a collection of facts into a set of ids."""
        intern = self.intern_fact
        return {intern(fact) for fact in facts}

    def violation_body_ids(self, violation: Violation) -> tuple[int, ...]:
        """The deduplicated body fact ids of one violation."""
        return tuple(
            dict.fromkeys(self.intern_fact(f) for f in violation.body_facts)
        )

    def update_session(self, analysis=None, cache=None, obs=None):
        """An :class:`~repro.incremental.UpdateSession` over this data.

        Convenience constructor; see :mod:`repro.incremental` for the
        delta-chase and live cluster-maintenance machinery behind it.
        """
        from repro.incremental import UpdateSession

        return UpdateSession(self, analysis=analysis, cache=cache, obs=obs)

    def influence_ids_of(self, fact_id: int) -> frozenset[int]:
        """Forward closure of one fact through support sets, memoized.

        The per-suspect side chases of the repair program and the
        envelope influences both need these; caching them means each
        fact's closure is walked at most once per exchange.
        """
        cached = self._influence_cache.get(fact_id)
        if cached is not None:
            return cached
        influenced = {fact_id}
        frontier = [fact_id]
        occurs = self.occurs_in_body
        heads = self.grounding_heads
        while frontier:
            current = frontier.pop()
            for index in occurs[current]:
                head_id = heads[index]
                if head_id not in influenced:
                    influenced.add(head_id)
                    frontier.append(head_id)
        result = frozenset(influenced)
        self._influence_cache[fact_id] = result
        return result


def violation_key(
    violation: Violation,
) -> tuple[str, frozenset[Fact], frozenset]:
    """The canonical identity of a violation, independent of orientation.

    Symmetric bindings of one grounded egd (swapping the roles of the two
    offending values) describe the same violation; the key canonicalizes
    them so both :func:`canonicalize_violations` and the incremental
    violation maintenance of :mod:`repro.incremental` dedup identically.
    """
    if violation.egd.symmetric:
        # Canonicalize the two orientations of a symmetric egd
        # (e.g. EQ(a, b) vs EQ(b, a)) into one violation.
        key_body = frozenset(
            Fact(fact.relation, tuple(sorted(fact.args, key=repr)))
            for fact in violation.body_facts
        )
    else:
        key_body = frozenset(violation.body_facts)
    return (
        violation.egd.label,
        key_body,
        frozenset((violation.lhs_value, violation.rhs_value)),
    )


def canonicalize_violations(violations: list[Violation]) -> list[Violation]:
    """One canonical representative per :func:`violation_key`, sorted.

    Symmetric egds ground in two orientations, and a join may encounter
    them in either order; keeping the repr-least representative (instead
    of the first encountered) and sorting the result makes the violation
    list a pure function of the violation *set*.
    """
    best: dict[tuple, tuple[str, Violation]] = {}
    for violation in violations:
        key = violation_key(violation)
        ranked = (repr(violation), violation)
        current = best.get(key)
        if current is None or ranked[0] < current[0]:
            best[key] = ranked
    return [
        violation
        for _text, violation in sorted(
            best.values(), key=lambda ranked: ranked[0]
        )
    ]


def build_exchange_data(
    mapping: SchemaMapping,
    source_instance: Instance,
    timings: dict[str, float] | None = None,
    obs: Recorder | None = None,
) -> ExchangeData:
    """Chase, ground, and detect violations for a ``gav+(gav, egd)`` mapping.

    The batch chase (:func:`~repro.chase.batch.batch_chase`) finds each
    binding once and emits its grounding, so there is no separate
    grounding stage (its timing reads 0); the violations are one batch
    join per egd.  The lists and the interned id universe are put in
    canonical (sorted) order regardless of the evaluation order that
    found them.

    Raises :class:`~repro.relational.schema.SchemaMismatch` when a fact
    of a declared source relation has the wrong number of values.

    When ``timings`` is a dict, per-stage wall-clock seconds are recorded
    into it under ``chase`` / ``groundings`` / ``violations`` / ``index``
    (used by the micro-benchmarks; answer-neutral).  ``obs`` (a
    :class:`~repro.obs.Recorder`) additionally records one child span per
    stage plus the deterministic work counters (chase rounds, chased
    facts, groundings, violations) — equally answer-neutral.
    """
    if not mapping.is_gav_gav_egd():
        raise ValueError(
            "exchange data requires a gav+(gav, egd) mapping; "
            "run reduce_mapping first"
        )
    # The batch chase's index projections assume one arity per relation.
    mapping.source.check_arities(source_instance)
    if obs is None:
        obs = NOOP_RECORDER
    tracer, metrics = obs.tracer, obs.metrics
    clock = time.perf_counter
    tgds = list(mapping.all_tgds())
    chase_stats: dict[str, int] | None = {} if metrics.enabled else None
    started = clock()
    groundings: list[tuple[TGD, tuple[Fact, ...], Fact]] = []
    with tracer.span("exchange.chase"):
        chased = batch_chase(
            source_instance, tgds, stats=chase_stats, groundings=groundings
        )
    chased_at = clock()
    with tracer.span("exchange.violations"):
        violations = canonicalize_violations(
            find_violations_batch(mapping.target_egds, chased)
        )
    violations_at = clock()
    data = ExchangeData(
        mapping=mapping,
        source_instance=source_instance,
        chased=chased,
        groundings=groundings,
        violations=violations,
    )
    with tracer.span("exchange.index"):
        _build_fact_indexes(data, tgds)
    if timings is not None:
        indexed_at = clock()
        timings["chase"] = chased_at - started
        timings["groundings"] = 0.0
        timings["violations"] = violations_at - chased_at
        timings["index"] = indexed_at - violations_at
    if chase_stats is not None:
        metrics.counter("exchange_chase_rounds_total").inc(
            chase_stats.get("rounds", 0)
        )
        metrics.counter("exchange_chase_derived_facts_total").inc(
            chase_stats.get("derived_facts", 0)
        )
        metrics.counter("exchange_source_facts_total").inc(len(source_instance))
        metrics.counter("exchange_chased_facts_total").inc(len(chased))
        metrics.counter("exchange_groundings_total").inc(len(groundings))
        metrics.counter("exchange_violations_total").inc(len(violations))
    return data


def _build_fact_indexes(
    data: ExchangeData, rules: list[TGD] | None = None
) -> None:
    """Intern the chased facts and build every int-keyed adjacency index.

    One pass over the chase, one over the groundings, one over the
    violations; everything downstream (closures, envelopes, program
    builders) then works on dense ids.  Given the ``rules`` (a fresh
    build), the groundings are first put in canonical order: rule
    position, then head id, then body ids.  Ids follow repr order, so
    this is the order of the facts' reprs, compared as ints.
    """
    intern = data.intern_fact
    # Sorted interning gives fresh builds a canonical id universe (the
    # same whatever order the chase found the facts in); on a rebuild the
    # ids already exist and interning is an order-insensitive no-op lookup.
    for fact in sorted(data.chased, key=repr):
        intern(fact)
    id_of = data.fact_ids.__getitem__
    groundings = data.groundings
    position_of = {id(rule): index for index, rule in enumerate(rules or ())}
    # (rule position, head id, body ids, list index) per grounding.
    keyed = [
        (
            position_of.get(id(rule), 0),
            id_of(head_fact),
            tuple(map(id_of, body_facts)),
            index,
        )
        for index, (rule, body_facts, head_fact) in enumerate(groundings)
    ]
    if rules is not None:
        keyed.sort()
        groundings[:] = [groundings[key[3]] for key in keyed]

    grounding_bodies = data.grounding_bodies
    grounding_heads = data.grounding_heads
    groundings_by_head = data.groundings_by_head
    occurs_in_body = data.occurs_in_body
    for index, (_position, head_id, body_ids, _old) in enumerate(keyed):
        if len(body_ids) > 1:
            body_ids = tuple(dict.fromkeys(body_ids))
        grounding_bodies.append(body_ids)
        grounding_heads.append(head_id)
        groundings_by_head[head_id].append(index)
        for body_id in body_ids:
            occurs_in_body[body_id].append(index)

    violations_by_fact = data.violations_by_fact
    for index, violation in enumerate(data.violations):
        body_ids = data.violation_body_ids(violation)
        data.violation_bodies.append(body_ids)
        for body_id in body_ids:
            violations_by_fact[body_id].append(index)


def rebuild_fact_indexes(data: ExchangeData) -> None:
    """Re-derive every adjacency index from the current fact-level state.

    Used by :mod:`repro.incremental` after a delta mutates ``chased`` /
    ``groundings`` / ``violations`` in place.  Fact ids are **stable**:
    ``fact_ids`` / ``facts_by_id`` are kept (retracted facts keep their id
    with empty adjacency rows), so every id-keyed artifact computed before
    the delta — cluster envelopes, signatures, cache keys — remains
    meaningful afterwards.  One linear pass over groundings + violations;
    no joins are re-run.
    """
    for rows in (
        data.groundings_by_head,
        data.occurs_in_body,
        data.violations_by_fact,
    ):
        for row in rows:
            row.clear()
    data.grounding_bodies.clear()
    data.grounding_heads.clear()
    data.violation_bodies.clear()
    data._influence_cache.clear()
    _build_fact_indexes(data)


def remove_groundings(data: ExchangeData, positions: set[int]) -> None:
    """Remove groundings by position, maintaining every adjacency index.

    Swap-remove: the hole left by a removed grounding is filled with the
    list's last element, whose (single) position change is patched into
    the per-fact rows — O(delta × row-size) instead of a full rebuild.
    Grounding order is not meaningful (every consumer treats the list as
    a set), so the reordering is invisible.  Positions are processed in
    descending order, which keeps the swap source out of the removal set.
    """
    groundings = data.groundings
    bodies = data.grounding_bodies
    heads = data.grounding_heads
    by_head = data.groundings_by_head
    occurs = data.occurs_in_body
    for index in sorted(positions, reverse=True):
        by_head[heads[index]].remove(index)
        for body_id in bodies[index]:
            occurs[body_id].remove(index)
        last = len(groundings) - 1
        if index != last:
            groundings[index] = groundings[last]
            bodies[index] = bodies[last]
            heads[index] = heads[last]
            row = by_head[heads[index]]
            row[row.index(last)] = index
            for body_id in bodies[index]:
                row = occurs[body_id]
                row[row.index(last)] = index
        groundings.pop()
        bodies.pop()
        heads.pop()


def remove_violations(data: ExchangeData, positions: set[int]) -> None:
    """Remove violations by position (swap-remove, as for groundings)."""
    violations = data.violations
    bodies = data.violation_bodies
    by_fact = data.violations_by_fact
    for index in sorted(positions, reverse=True):
        for body_id in bodies[index]:
            by_fact[body_id].remove(index)
        last = len(violations) - 1
        if index != last:
            violations[index] = violations[last]
            bodies[index] = bodies[last]
            for body_id in bodies[index]:
                row = by_fact[body_id]
                row[row.index(last)] = index
        violations.pop()
        bodies.pop()


def append_grounding(
    data: ExchangeData, grounding: tuple[TGD, tuple[Fact, ...], Fact]
) -> tuple[int, tuple[int, ...]]:
    """Append one grounding, indexing it; returns ``(head_id, body_ids)``."""
    _rule, body_facts, head_fact = grounding
    index = len(data.groundings)
    data.groundings.append(grounding)
    head_id = data.intern_fact(head_fact)
    body_ids = tuple(dict.fromkeys(data.intern_fact(f) for f in body_facts))
    data.grounding_bodies.append(body_ids)
    data.grounding_heads.append(head_id)
    data.groundings_by_head[head_id].append(index)
    for body_id in body_ids:
        data.occurs_in_body[body_id].append(index)
    return head_id, body_ids


def append_violation(data: ExchangeData, violation: Violation) -> None:
    """Append one violation, indexing its body facts."""
    index = len(data.violations)
    body_ids = data.violation_body_ids(violation)
    data.violations.append(violation)
    data.violation_bodies.append(body_ids)
    for body_id in body_ids:
        data.violations_by_fact[body_id].append(index)
