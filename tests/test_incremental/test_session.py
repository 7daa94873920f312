"""Update-session behavior plus the delta-chase algebra properties.

The property tests are the satellite contract of PR 7: applying a delta
and then its inverse restores the exchange state exactly;
``chase(I ∪ Δ) == delta_chase(chase(I), Δ)`` across fuzz seeds; and
clusters disjoint from a delta's support survive **object-identical**
(the locality guarantee the signature cache's survival rests on).  On the
genomics grid, retracting and re-inserting suspects leaves no duplicate
grounding behind and ends in the same state under any ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.fuzz.updates import (
    check_update_seed,
    random_update_stream,
)
from repro.incremental import Delta, apply_delta
from repro.parser import parse_mapping, parse_query
from repro.relational import Fact, Instance, SchemaMismatch
from repro.xr.exchange import violation_key
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


def key_mapping():
    return parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )


TWO_CLUSTERS = [
    f("R", "a", "b"),
    f("R", "a", "c"),  # cluster on key 'a'
    f("R", "d", "e"),
    f("R", "d", "g"),  # cluster on key 'd'
    f("R", "s", "t"),  # safe
]


def fresh_engine(instance_facts):
    return SegmentaryEngine(key_mapping(), Instance(instance_facts))


class TestUpdateSession:
    def test_insert_creates_conflict(self):
        engine = fresh_engine([f("R", "a", "b"), f("R", "s", "t")])
        session = engine.update_session()
        assert len(engine.analysis.clusters) == 0
        report = session.apply(Delta(inserts=frozenset({f("R", "a", "c")})))
        assert report.violations_added == 1
        assert report.clusters_created == 1
        assert len(engine.analysis.clusters) == 1
        assert engine.answer(parse_query("q(x) :- P(x, y).")) == {
            ("a",),
            ("s",),
        }

    def test_retract_dissolves_conflict(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        assert len(engine.analysis.clusters) == 2
        report = session.apply(Delta(retracts=frozenset({f("R", "a", "c")})))
        assert report.violations_removed == 1
        assert len(engine.analysis.clusters) == 1
        # The surviving conflict is the one on key 'd'.
        (cluster,) = engine.analysis.clusters
        assert f("R", "d", "e") in cluster.source_envelope
        answers = engine.answer(parse_query("q(x, y) :- P(x, y)."))
        assert ("a", "b") in answers

    def test_rejects_non_source_relations(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        with pytest.raises(ValueError, match="non-source relation"):
            session.apply(Delta(inserts=frozenset({f("P", "x", "y")})))

    @pytest.mark.parametrize(
        "bad",
        [
            Delta(inserts=frozenset({f("R", "z")})),
            Delta(retracts=frozenset({f("R", "a", "b", "c")})),
            Delta(inserts=frozenset({f("P", "x", "y")})),
        ],
    )
    def test_stream_is_checked_before_any_step_applies(self, bad):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        good = Delta(inserts=frozenset({f("R", "x", "y")}))
        with pytest.raises(SchemaMismatch):
            session.apply_stream([good, bad])
        assert set(engine.instance) == set(TWO_CLUSTERS)
        assert session.stats.deltas_applied == 0
        with pytest.raises(ValueError):  # SchemaMismatch is a ValueError
            session.apply(bad)
        assert set(engine.instance) == set(TWO_CLUSTERS)

    def test_noop_delta_changes_nothing(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        before = list(engine.analysis.clusters)
        report = session.apply(
            Delta(
                inserts=frozenset({f("R", "a", "b")}),  # already present
                retracts=frozenset({f("R", "z", "z")}),  # already absent
            )
        )
        assert report.noop
        assert report.cache_invalidated == 0
        assert engine.analysis.clusters == before
        assert session.stats.noop_deltas == 1

    def test_engine_stats_track_updates(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        assert engine.exchange_stats.source_facts == 5
        session.apply(Delta(inserts=frozenset({f("R", "n", "m")})))
        assert engine.exchange_stats.source_facts == 6
        assert engine.exchange_stats.chased_facts == len(engine.data.chased)

    def test_cluster_locality_object_identity(self):
        engine = fresh_engine(TWO_CLUSTERS)
        session = engine.update_session()
        by_key = {
            min(c.source_envelope, key=repr).args[0]: c
            for c in engine.analysis.clusters
        }
        untouched_before = by_key["a"]
        session.apply(Delta(retracts=frozenset({f("R", "d", "g")})))
        (survivor,) = engine.analysis.clusters
        assert survivor is untouched_before
        assert survivor.index == untouched_before.index


def _state_snapshot(engine):
    return (
        frozenset(engine.data.chased),
        frozenset(
            (rule.label, body, head) for rule, body, head in engine.data.groundings
        ),
        frozenset(violation_key(v) for v in engine.data.violations),
        frozenset(
            frozenset(violation_key(v) for v in cluster.violations)
            for cluster in engine.analysis.clusters
        ),
        frozenset(engine.analysis.safe_source),
        frozenset(engine.analysis.safe_chased),
    )


PROPERTY_SEEDS = range(6)


class TestDeltaChaseAlgebra:
    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_apply_then_invert_restores_state(self, seed):
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        deltas = random_update_stream(seed, scenario, 5, DEFAULT_CONFIG)
        engine = SegmentaryEngine(scenario.mapping, scenario.instance.copy())
        session = engine.update_session()
        baseline = _state_snapshot(engine)
        for delta in deltas:
            effective = delta.normalized(engine.data.source_instance)
            session.apply(effective)
            session.apply(effective.inverted())
            assert _state_snapshot(engine) == baseline
        engine.close()

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_delta_chase_commutes_with_chase(self, seed):
        # check_update_seed compares the warm incremental engine against a
        # from-scratch exchange of the updated instance at every step —
        # chased facts, groundings, violations, clusters, envelopes, safe
        # split, and both answer modes.
        assert check_update_seed(seed, DEFAULT_CONFIG, steps=6) == []

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_surviving_cluster_ids_are_object_identical(self, seed):
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        deltas = random_update_stream(seed, scenario, 6, DEFAULT_CONFIG)
        engine = SegmentaryEngine(scenario.mapping, scenario.instance.copy())
        session = engine.update_session()
        for delta in deltas:
            before = {c.index: c for c in engine.analysis.clusters}
            session.apply(delta)
            for cluster in engine.analysis.clusters:
                if cluster.index in before:
                    assert cluster is before[cluster.index]
        engine.close()


def _suspect_round_trips(name):
    """An engine on genomics cell ``name``, its session, and one
    retract-then-re-insert delta pair per suspect source fact."""
    from repro.bench.micro import parse_scenario_name
    from repro.genomics.instances import build_instance
    from repro.genomics.schema import genome_mapping

    instance = build_instance(parse_scenario_name(name)).instance
    engine = SegmentaryEngine(genome_mapping(), instance)
    session = engine.update_session()
    pairs = [
        (Delta(retracts=frozenset({fact})), Delta(inserts=frozenset({fact})))
        for fact in sorted(engine.analysis.suspect_source, key=repr)
    ]
    return engine, session, pairs


class TestSuspectRoundTrips:
    def test_each_suspect_round_trip_restores_the_exchange(self):
        engine, session, pairs = _suspect_round_trips("S3")
        data = engine.data
        facts = list(data.facts_by_id)
        groundings = {(id(r), b, h) for r, b, h in data.groundings}
        assert pairs
        position = {id(rule): i for i, rule in enumerate(data.mapping.all_tgds())}
        for retract, insert in pairs:
            session.apply(retract)
            added = session.apply(insert).groundings_added
            assert added
            # The delta's groundings are appended in canonical order.
            tail = [
                (position[id(r)], data.fact_ids[h], [data.fact_ids[f] for f in b])
                for r, b, h in data.groundings[-added:]
            ]
            assert tail == sorted(tail)
            keys = [(id(r), b, h) for r, b, h in data.groundings]
            assert len(keys) == len(set(keys)), "a grounding found twice"
            assert set(keys) == groundings
            assert data.facts_by_id == facts
        engine.close()

    def test_update_stream_state_is_independent_of_hash_seed(self):
        """Fact ids, the grounding list and the violation list after a
        suspect round-trip stream are the same under two hash seeds."""
        program = (
            "import hashlib\n"
            "from tests.test_incremental.test_session import "
            "_suspect_round_trips\n"
            "engine, session, pairs = _suspect_round_trips('S3')\n"
            "for retract, insert in pairs:\n"
            "    session.apply(retract)\n"
            "    session.apply(insert)\n"
            "data = engine.data\n"
            "groundings = [(r.label, b, h) for r, b, h in data.groundings]\n"
            "for part in (data.facts_by_id, groundings, data.violations):\n"
            "    text = repr(list(part)).encode()\n"
            "    print(len(part), hashlib.sha256(text).hexdigest())\n"
        )
        root = Path(__file__).resolve().parents[2]
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
            )
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True, cwd=root,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        counts = [int(line.split()[0]) for line in outputs[0].splitlines()]
        assert len(counts) == 3 and all(counts)
