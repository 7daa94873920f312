"""Update sessions: live cluster maintenance over a maintained exchange.

An :class:`UpdateSession` owns the mutable exchange state of one
:class:`~repro.xr.exchange.ExchangeData` (and optionally the
:class:`~repro.xr.envelope.EnvelopeAnalysis`, signature-program cache and
engine built on it) and applies :class:`~repro.incremental.delta.Delta`
batches in place:

1. **Delta-chase** (:mod:`repro.incremental.chase`): chased instance,
   groundings and violations maintained semi-naively on the session's
   :class:`~repro.chase.batch.ChaseState`; adjacency maintained in place
   with stable fact ids.
2. **Cluster maintenance**: a cluster is *touched* iff one of its
   violations died or its support closure / influence meets the delta's
   dirty set (dead facts, new facts, facts of added groundings, heads of
   removed groundings) — every structural change to a cluster funnels
   through one of those, so untouched clusters are **object-identical**
   afterwards (the cluster-locality property the fuzz harness checks).
   The violations of touched clusters plus the new violations are
   re-clustered from scratch; untouched clusters whose source envelopes
   meet the re-clustered pool's suspects are pulled in and merged
   (insertions can spawn *and* merge clusters; retraction can split them).
3. **Id hygiene and cache invalidation**: cluster ids are stable and
   monotonic.  A recomputed group identical to the touched cluster it came
   from (same violation objects, same closure/envelope/influence) keeps
   its object and id; everything else gets a fresh id and the old ids are
   *retired*.  A surviving cluster whose influence contains a fact whose
   safe/suspect status flipped also has its id retired (its focus — and
   hence its program — changed even though its membership did not).
   :meth:`~repro.runtime.cache.SignatureProgramCache.invalidate_clusters`
   then drops exactly the cache entries whose signature meets the retired
   ids; decisions about unaffected clusters survive the update.

Instrumented with :mod:`repro.obs`: span ``incremental.delta_chase``
around each applied delta, counters ``incremental.deltas_total``,
``incremental.clusters_touched`` and ``incremental.cache_invalidated``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.chase.batch import ChaseState
from repro.obs.recorder import NOOP_RECORDER, Recorder
from repro.relational.instance import Instance
from repro.relational.schema import SchemaMismatch
from repro.xr.envelope import (
    EnvelopeAnalysis,
    ViolationCluster,
    build_cluster,
    cluster_violations,
    derivable_ids,
    support_closure_ids,
)
from repro.xr.exchange import ExchangeData, violation_key

from repro.incremental.chase import DeltaChaseReport, apply_delta_chase
from repro.incremental.delta import Delta


@dataclass
class UpdateReport:
    """What one applied delta did, layer by layer."""

    inserted_source: int = 0
    retracted_source: int = 0
    facts_added: int = 0
    facts_removed: int = 0
    groundings_added: int = 0
    groundings_removed: int = 0
    violations_added: int = 0
    violations_removed: int = 0
    clusters_touched: int = 0
    clusters_retired: int = 0
    clusters_created: int = 0
    clusters_total: int = 0
    cache_invalidated: int = 0
    seconds: float = 0.0
    noop: bool = False
    retired_cluster_ids: frozenset[int] = frozenset()


@dataclass
class SessionStats:
    """Cumulative counters over the session's lifetime."""

    deltas_applied: int = 0
    noop_deltas: int = 0
    clusters_touched: int = 0
    clusters_retired: int = 0
    cache_invalidated: int = 0
    seconds: float = 0.0


class UpdateSession:
    """Maintain materialized exchange state under source-tuple updates.

    Construct via :meth:`ExchangeData.update_session` or
    :meth:`SegmentaryEngine.update_session`.  The session mutates the
    exchange data (and analysis, cache, engine stats) **in place** —
    including ``data.source_instance``, which an engine shares with its
    ``instance`` attribute.  Callers wanting to keep the pre-update
    instance must pass a copy when building the engine.
    """

    def __init__(
        self,
        data: ExchangeData,
        analysis: EnvelopeAnalysis | None = None,
        cache=None,
        obs: Recorder | None = None,
        engine=None,
    ) -> None:
        self.data = data
        self.analysis = analysis
        self.cache = cache
        self.obs = obs if obs is not None else NOOP_RECORDER
        self.engine = engine
        self.stats = SessionStats()
        # The batch chase's loop state over ``data.chased``, indexed in id
        # order so that nothing about it depends on set iteration order.
        self._state = ChaseState(
            data.chased,
            list(data.mapping.all_tgds()),
            data.mapping.target_egds,
            order=data.facts_by_id,
        )
        self._violation_keys = {violation_key(v) for v in data.violations}

    # ------------------------------------------------------------- apply

    def check(self, delta: Delta) -> None:
        """Raise :class:`~repro.relational.schema.SchemaMismatch` unless
        every fact ``delta`` mentions is a source fact of the declared
        arity.  Changes nothing."""
        source = self.data.mapping.source
        facts = delta.inserts | delta.retracts
        for fact in facts:
            if fact.relation not in source:
                raise SchemaMismatch(
                    f"update mentions non-source relation "
                    f"{fact.relation!r}: {fact!r}"
                )
        source.check_arities(facts)

    def apply(self, delta: Delta) -> UpdateReport:
        """Apply one delta; returns the per-layer report."""
        started = time.perf_counter()
        self.check(delta)
        effective = delta.normalized(self.data.source_instance)
        report = UpdateReport(noop=effective.is_noop())
        tracer, metrics = self.obs.tracer, self.obs.metrics
        if not report.noop:
            with tracer.span(
                "incremental.delta_chase",
                inserts=len(effective.inserts),
                retracts=len(effective.retracts),
            ):
                chase_report = apply_delta_chase(
                    self.data,
                    effective,
                    self._state,
                    self._violation_keys,
                )
            report.inserted_source = len(effective.inserts)
            report.retracted_source = len(effective.retracts)
            report.facts_added = len(chase_report.new_ids)
            report.facts_removed = len(chase_report.dead_ids)
            report.groundings_added = chase_report.added_groundings
            report.groundings_removed = chase_report.removed_groundings
            report.violations_added = len(chase_report.new_violations)
            report.violations_removed = len(chase_report.dead_violations)

            if self.analysis is not None:
                with tracer.span("incremental.clusters"):
                    retired, touched, created = self._maintain_clusters(
                        chase_report
                    )
                report.clusters_touched = touched
                report.clusters_retired = len(retired)
                report.clusters_created = created
                report.retired_cluster_ids = frozenset(retired)
                report.clusters_total = len(self.analysis.clusters)
                if self.cache is not None and retired:
                    report.cache_invalidated = (
                        self.cache.invalidate_clusters(retired)
                    )
        if self.engine is not None:
            self.engine.refresh_exchange_stats()

        report.seconds = time.perf_counter() - started
        self.stats.deltas_applied += 1
        self.stats.noop_deltas += int(report.noop)
        self.stats.clusters_touched += report.clusters_touched
        self.stats.clusters_retired += report.clusters_retired
        self.stats.cache_invalidated += report.cache_invalidated
        self.stats.seconds += report.seconds
        if metrics.enabled:
            metrics.inc("incremental.deltas_total")
            metrics.inc(
                "incremental.clusters_touched", report.clusters_touched
            )
            metrics.inc(
                "incremental.cache_invalidated", report.cache_invalidated
            )
        return report

    def apply_stream(self, deltas) -> list[UpdateReport]:
        """Apply a list of deltas in order, after checking all of them: a
        bad fact in any step rejects the stream before the first step
        applies."""
        deltas = list(deltas)
        for delta in deltas:
            self.check(delta)
        return [self.apply(delta) for delta in deltas]

    # ----------------------------------------------- cluster maintenance

    def _maintain_clusters(
        self, chase_report: DeltaChaseReport
    ) -> tuple[set[int], int, int]:
        """Recompute exactly the clusters the delta could have changed.

        Returns ``(retired cluster ids, touched count, created count)``
        and leaves ``self.analysis`` updated in place (same object — the
        engine keeps its reference).
        """
        analysis = self.analysis
        data = self.data
        assert analysis is not None
        dirty = chase_report.dirty_ids()
        dead_violations = {id(v) for v in chase_report.dead_violations}

        untouched: list[ViolationCluster] = []
        touched: list[ViolationCluster] = []
        for cluster in analysis.clusters:
            if (
                any(id(v) in dead_violations for v in cluster.violations)
                or not dirty.isdisjoint(cluster.closure_ids)
                or not dirty.isdisjoint(cluster.influence_ids)
            ):
                touched.append(cluster)
            else:
                untouched.append(cluster)

        # Pool to re-cluster: surviving violations of touched clusters plus
        # the new ones.  Untouched clusters whose source envelope meets the
        # pool's suspect facts must merge with it — pull them in and
        # repeat until the pool is closed (a pulled-in cluster's own
        # envelope can overlap further clusters).
        pool = [
            v
            for cluster in touched
            for v in cluster.violations
            if id(v) not in dead_violations
        ]
        pool.extend(chase_report.new_violations)
        source_mask = data.source_id_mask
        closures = [
            support_closure_ids(set(data.violation_body_ids(v)), data)
            for v in pool
        ]
        while True:
            pool_suspects = {
                fact_id
                for closure in closures
                for fact_id in closure
                if source_mask[fact_id]
            }
            pulled = [
                cluster
                for cluster in untouched
                if not pool_suspects.isdisjoint(cluster.source_envelope_ids)
            ]
            if not pulled:
                break
            for cluster in pulled:
                untouched.remove(cluster)
                touched.append(cluster)
                for violation in cluster.violations:
                    pool.append(violation)
                    closures.append(
                        support_closure_ids(
                            set(data.violation_body_ids(violation)), data
                        )
                    )

        # Regroup the pool and rebuild its clusters, reusing a touched
        # cluster (object and id) when the recomputation reproduced it
        # exactly — clusters touched only conservatively keep their cached
        # decisions that way.
        by_members = {
            frozenset(id(v) for v in cluster.violations): cluster
            for cluster in touched
        }
        rebuilt: list[ViolationCluster] = []
        retired: set[int] = set()
        reused: set[int] = set()
        for member_positions in cluster_violations(closures, data):
            members = [pool[p] for p in member_positions]
            closure_ids: set[int] = set()
            for position in member_positions:
                closure_ids |= closures[position]
            previous = by_members.get(frozenset(id(v) for v in members))
            if previous is not None:
                candidate = build_cluster(
                    previous.index, members, [], closure_ids, data
                )
                if (
                    candidate.closure_ids == previous.closure_ids
                    and candidate.source_envelope_ids
                    == previous.source_envelope_ids
                    and candidate.influence_ids == previous.influence_ids
                ):
                    rebuilt.append(previous)
                    reused.add(id(previous))
                    continue
            fresh_id = analysis.next_cluster_id
            analysis.next_cluster_id += 1
            rebuilt.append(
                build_cluster(fresh_id, members, [], closure_ids, data)
            )
        retired.update(
            cluster.index for cluster in touched if id(cluster) not in reused
        )

        clusters = untouched + rebuilt

        # Safe/suspect recomputation (suspects = union of final envelopes)
        # and focus-flip detection: a surviving cluster whose influence
        # holds a fact whose safety flipped gets a *fresh id* — its repair
        # program (focus = influence − safe) changed even though its
        # membership and envelope did not — so stale cache entries die.
        # Freshly-built clusters already carry fresh ids.
        old_safe_ids = analysis.safe_ids
        suspect_ids: set[int] = set()
        for cluster in clusters:
            suspect_ids |= cluster.source_envelope_ids
        source_ids = {data.fact_ids[f] for f in data.source_instance}
        safe_id_set = derivable_ids(source_ids - suspect_ids, data)
        flipped = old_safe_ids.symmetric_difference(safe_id_set)
        if flipped:
            survivors = {id(c) for c in untouched} | reused
            for cluster in clusters:
                if id(cluster) in survivors and not flipped.isdisjoint(
                    cluster.influence_ids
                ):
                    retired.add(cluster.index)
                    cluster.index = analysis.next_cluster_id
                    analysis.next_cluster_id += 1
        clusters.sort(key=lambda c: c.index)

        facts_by_id = data.facts_by_id
        analysis.clusters = clusters
        analysis.suspect_source = {
            facts_by_id[fact_id] for fact_id in suspect_ids
        }
        analysis.safe_source = (
            set(data.source_instance) - analysis.suspect_source
        )
        analysis.safe_chased = Instance(
            facts_by_id[fact_id] for fact_id in sorted(safe_id_set)
        )
        analysis.safe_ids = frozenset(safe_id_set)
        analysis.invalidate_cluster_lookup()

        # Positional bookkeeping: violation indexes into the compacted
        # violation list, and the fact → cluster-id membership map.
        position_of = {
            id(violation): position
            for position, violation in enumerate(data.violations)
        }
        membership: dict = {}
        for cluster in clusters:
            cluster.violation_indexes = sorted(
                position_of[id(violation)] for violation in cluster.violations
            )
            for fact_id in cluster.influence_ids:
                membership.setdefault(facts_by_id[fact_id], set()).add(
                    cluster.index
                )
        analysis.cluster_membership = membership

        return retired, len(touched), len(rebuilt) - len(reused)
