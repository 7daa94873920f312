"""Tests for the set-at-a-time batch operators.

Every batch operator is checked against the naive test-only reference of
:mod:`tests.naive_exchange`: ``batch_chase`` vs ``naive_chase`` (same
fixpoint *and* same round/derived counters), the groundings the chase
emits and ``enumerate_groundings_batch`` vs ``naive_groundings`` (same
grounding set, each grounding exactly once, under every planner mode),
``find_violations_batch`` vs ``naive_violations`` (same canonical
violation list).  Internal mechanics with observable consequences —
signature-shared indexes, one object per fact, a resumable chase state
whose extensions find each new binding once — get direct tests too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chase.batch import (
    BatchOptions,
    ChaseState,
    _AtomStep,
    _IndexCache,
    batch_chase,
    enumerate_groundings_batch,
    find_violations_batch,
    plan_mode,
)
from repro.parser import parse_dependency
from repro.relational import Fact, Instance
from repro.relational.queries import Atom
from repro.relational.terms import Variable
from repro.scenarios.tpch import tpch_mapping, tpch_scenario
from repro.xr.exchange import canonicalize_violations
from tests.naive_exchange import naive_chase, naive_groundings, naive_violations

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

FORCE_NESTED = BatchOptions(nested_threshold=10**9)


def f(rel, *args):
    return Fact(rel, args)


def rule(text):
    return parse_dependency(text)


def chain(n=8):
    return Instance([f("E", i, i + 1) for i in range(n)])


TC_RULES = [rule("E(x,y) -> P(x,y)."), rule("P(x,y), P(y,z) -> P(x,z).")]


class TestBatchChase:
    def test_matches_gav_chase_facts_and_stats(self):
        batch_stats: dict[str, int] = {}
        naive_stats: dict[str, int] = {}
        batch = batch_chase(chain(), TC_RULES, stats=batch_stats)
        reference = naive_chase(chain(), TC_RULES, stats=naive_stats)
        assert set(batch) == set(reference)
        assert batch_stats == naive_stats

    def test_matches_on_tpch_cell(self):
        scenario = tpch_scenario(0.005, 0.4, 3)
        from repro.reduction.reduce import reduce_mapping

        tgds = reduce_mapping(scenario.mapping).gav.st_tgds
        batch_stats: dict[str, int] = {}
        naive_stats: dict[str, int] = {}
        batch = batch_chase(scenario.instance, tgds, stats=batch_stats)
        reference = naive_chase(scenario.instance, tgds, stats=naive_stats)
        assert set(batch) == set(reference)
        assert batch_stats == naive_stats
        assert batch_stats["rounds"] >= 2  # the target-side join tgd fires

    def test_skolem_heads(self):
        source = Instance([f("R", "a", "b"), f("R", "a", "c")])
        assert set(batch_chase(source, [skolem_rule()])) == set(
            naive_chase(source, [skolem_rule()])
        )

    def test_non_gav_rule_rejected(self):
        with pytest.raises(ValueError, match="GAV"):
            batch_chase(Instance(), [rule("R(x) -> T(x, z).")])

    def test_round_limit(self):
        with pytest.raises(RuntimeError, match="rounds"):
            batch_chase(chain(16), TC_RULES, max_rounds=2)


def skolem_rule():
    from repro.dependencies.tgds import TGD, SkolemTerm

    return TGD([Atom("R", (X, Y))], [Atom("T", (X, SkolemTerm("f", [X])))])


#: (label, source instance, rules) cases for the grounding-emitting chase.
CHASE_CASES = [
    ("transitive closure", chain(), TC_RULES),
    # A cycle makes tautological groundings (P(1,1), P(1,2) -> P(1,2)).
    (
        "closure over a cycle",
        Instance([f("E", 1, 2), f("E", 2, 3), f("E", 3, 1)]),
        TC_RULES,
    ),
    (
        "skolem heads",
        Instance([f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "b")]),
        [skolem_rule(), rule("T(x, y) -> U(y, x).")],
    ),
    (
        "a body that repeats one atom",
        chain(5),
        [
            rule("E(x,y) -> P(x,y)."),
            rule("P(x,y), P(x,y) -> Q(x,y)."),
            rule("P(x,y), Q(y,z), P(x,y) -> P(x,z)."),
        ],
    ),
]


class TestChaseGroundings:
    """``batch_chase(..., groundings=out)`` finds every binding once."""

    @staticmethod
    def run(instance, rules):
        emitted: list = []
        stats: dict[str, int] = {}
        chased = batch_chase(instance, rules, stats=stats, groundings=emitted)
        return chased, emitted, stats

    @pytest.mark.parametrize(
        "label,instance,rules", CHASE_CASES, ids=[case[0] for case in CHASE_CASES]
    )
    def test_each_grounding_emitted_exactly_once(self, label, instance, rules):
        _chased, emitted, _stats = self.run(instance, rules)
        keys = [(id(rule), body, head) for rule, body, head in emitted]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize(
        "label,instance,rules", CHASE_CASES, ids=[case[0] for case in CHASE_CASES]
    )
    def test_emitted_set_matches_enumerate_groundings(self, label, instance, rules):
        chased, emitted, _stats = self.run(instance, rules)
        reference = list(naive_groundings(rules, chased))
        assert len(emitted) == len(reference)
        assert {(id(r), b, h) for r, b, h in emitted} == {
            (id(r), b, h) for r, b, h in reference
        }

    @pytest.mark.parametrize(
        "label,instance,rules", CHASE_CASES, ids=[case[0] for case in CHASE_CASES]
    )
    def test_facts_are_the_stored_objects(self, label, instance, rules):
        chased, emitted, _stats = self.run(instance, rules)
        stored = {fact: fact for fact in chased}
        assert emitted
        for _rule, body, head in emitted:
            assert stored[head] is head
            for fact in body:
                assert stored[fact] is fact

    @pytest.mark.parametrize(
        "label,instance,rules", CHASE_CASES, ids=[case[0] for case in CHASE_CASES]
    )
    def test_counters_and_fixpoint_match_gav_chase(self, label, instance, rules):
        chased, _emitted, stats = self.run(instance, rules)
        reference_stats: dict[str, int] = {}
        reference = naive_chase(instance, rules, stats=reference_stats)
        assert set(chased) == set(reference)
        assert stats == reference_stats

    def test_tautologies_are_dropped(self):
        _label, instance, rules = CHASE_CASES[1]
        chased, emitted, _stats = self.run(instance, rules)
        assert f("P", 1, 1) in chased
        assert all(head not in body for _rule, body, head in emitted)

    def test_fact_ids_and_grounding_order_stable_across_hash_seeds(self):
        """An L-grid exchange interns the same facts in the same order and
        lists its groundings in the same order under any PYTHONHASHSEED."""
        program = (
            "import hashlib\n"
            "from repro.bench.micro import parse_scenario_name\n"
            "from repro.genomics.instances import build_instance\n"
            "from repro.genomics.schema import genome_mapping\n"
            "from repro.reduction.reduce import reduce_mapping\n"
            "from repro.xr.exchange import build_exchange_data\n"
            "instance = build_instance(parse_scenario_name('L9')).instance\n"
            "data = build_exchange_data(reduce_mapping(genome_mapping()).gav, instance)\n"
            "digest = hashlib.sha256()\n"
            "for fact in data.facts_by_id:\n"
            "    digest.update(repr(fact).encode())\n"
            "for rule, body, head in data.groundings:\n"
            "    digest.update(repr((rule.label, body, head)).encode())\n"
            "print(len(data.facts_by_id), len(data.groundings), digest.hexdigest())\n"
        )
        outputs = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = str(Path(__file__).resolve().parents[2] / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        facts, groundings, _digest = outputs[0].split()
        assert int(facts) > 0 and int(groundings) > 0


class TestPlanner:
    def test_tiny_bodies_stay_nested(self):
        instance = Instance([f("R", 1, 2)])
        assert plan_mode(instance, [Atom("R", (X, Y))], BatchOptions()) == "nested"

    def test_medium_bodies_hash(self):
        instance = Instance([f("R", i, i) for i in range(50)])
        assert plan_mode(instance, [Atom("R", (X, Y))], BatchOptions()) == "hash"


class TestGroundings:
    def groundings_of(self, rules, instance, **kwargs):
        return {
            (rule.label, body, head)
            for rule, body, head in enumerate_groundings_batch(
                rules, instance, **kwargs
            )
        }

    def reference_of(self, rules, instance):
        return {
            (rule.label, body, head)
            for rule, body, head in naive_groundings(rules, instance)
        }

    def test_hash_mode_matches_reference(self):
        chased = naive_chase(chain(), TC_RULES)
        plan_log: dict[str, str] = {}
        got = self.groundings_of(TC_RULES, chased, plan_log=plan_log)
        assert got == self.reference_of(TC_RULES, chased)
        assert "hash" in plan_log.values()

    def test_nested_mode_matches_reference(self):
        chased = naive_chase(chain(), TC_RULES)
        plan_log: dict[str, str] = {}
        got = self.groundings_of(
            TC_RULES, chased, options=FORCE_NESTED, plan_log=plan_log
        )
        assert got == self.reference_of(TC_RULES, chased)
        assert set(plan_log.values()) == {"nested"}

    def test_tautological_groundings_dropped(self):
        loop = Instance([f("P", 1, 1)])
        assert self.groundings_of(TC_RULES[1:], loop) == set()


class TestViolations:
    def test_matches_reference_on_tpch(self):
        scenario = tpch_scenario(0.005, 0.5, 1)
        from repro.reduction.reduce import reduce_mapping

        gav = reduce_mapping(scenario.mapping).gav
        chased = naive_chase(scenario.instance, gav.st_tgds)
        batch = canonicalize_violations(
            find_violations_batch(gav.target_egds, chased)
        )
        assert batch == naive_violations(gav.target_egds, chased)
        assert batch  # injection at 50 % must produce violations

    def test_all_modes_agree(self):
        scenario = tpch_scenario(0.005, 0.5, 1)
        from repro.reduction.reduce import reduce_mapping

        gav = reduce_mapping(scenario.mapping).gav
        chased = naive_chase(scenario.instance, gav.st_tgds)
        results = {}
        for label, options in (
            ("nested", FORCE_NESTED),
            ("hash", BatchOptions()),
        ):
            results[label] = canonicalize_violations(
                find_violations_batch(gav.target_egds, chased, options=options)
            )
        assert results["nested"] == results["hash"]


class TestIndexSharing:
    def test_same_signature_shares_one_index(self):
        # An egd self-join compiles its two atoms to the same signature
        # (same relation, same key/const/same-var shape), so the cache
        # must hand back the identical index object.
        instance = Instance([f("T", i, i % 3) for i in range(20)])
        layout_a: dict[Variable, int] = {}
        step_a = _AtomStep(Atom("T", (X, Y)), layout_a)
        layout_b: dict[Variable, int] = {}
        step_b = _AtomStep(Atom("T", (X, Z)), layout_b)
        assert step_a.signature == step_b.signature
        cache = _IndexCache(instance)
        assert cache.index_for(step_a) is cache.index_for(step_b)

    def test_removal_keeps_arrival_order(self):
        instance = Instance([f("T", 0, 1)])
        step = _AtomStep(Atom("T", (X, Y)), {})
        cache = _IndexCache(instance)
        bucket = cache.index_for(step)[()]  # no bound variables: one bucket
        facts = [f("T", 0, i) for i in range(2, 6)]
        for arrival, fact in enumerate(facts, start=1):
            cache.add_fact(fact, arrival)
        cache.remove_fact(facts[0])
        assert [arrival for _extension, arrival in bucket] == [0, 2, 3, 4]
        assert facts[0] not in [extension[-1] for extension, _ in bucket]

    def test_incremental_maintenance(self):
        instance = Instance([f("T", 1, 2)])
        layout: dict[Variable, int] = {}
        step = _AtomStep(Atom("T", (X, Y)), layout)
        cache = _IndexCache(instance)
        before = sum(len(bucket) for bucket in cache.index_for(step).values())
        cache.add_fact(f("T", 3, 4))
        after = sum(len(bucket) for bucket in cache.index_for(step).values())
        assert after == before + 1


class TestChaseState:
    """The resumable chase: extensions, retraction, delta violations."""

    @staticmethod
    def chased_state(instance, rules, egds=()):
        work = instance.copy()
        state = ChaseState(work, rules, egds)
        groundings: list = []
        state.extend(list(work), groundings)
        return state, groundings

    @staticmethod
    def keys(groundings):
        return sorted(
            (rule.label, repr(body), repr(head)) for rule, body, head in groundings
        )

    def test_extension_finds_each_new_binding_once(self):
        state, groundings = self.chased_state(chain(4), TC_RULES)
        for fact in (f("E", 4, 5), f("E", 9, 0)):
            delta = state.insert([fact])
            rounds, derived = state.extend(delta, groundings)
            assert rounds >= 1
            assert all(fact in state.work for fact in derived)
        source = chain(5)
        source.add(f("E", 9, 0))
        assert set(state.work) == set(naive_chase(source, TC_RULES))
        reference = naive_groundings(TC_RULES, state.work)
        assert self.keys(groundings) == self.keys(reference)

    def test_insert_skips_present_facts(self):
        state, _groundings = self.chased_state(chain(3), TC_RULES)
        assert state.insert([f("E", 0, 1), f("P", 0, 3)]) == []
        assert state.extend([]) == (0, [])

    def test_retract_then_reinsert_restores_the_groundings(self):
        state, groundings = self.chased_state(chain(3), TC_RULES)
        before = self.keys(groundings)
        dead = [fact for fact in state.work if fact.args[1] == 3]
        state.retract(dead)
        survivors = [
            g for g in groundings
            if g[2] in state.work and all(fact in state.work for fact in g[1])
        ]
        for fact in dead:
            assert fact not in state.work
        for index in state.cache._by_signature.values():
            for bucket in index.values():
                assert bucket, "empty buckets are dropped"
                arrivals = [arrival for _extension, arrival in bucket]
                assert arrivals == sorted(arrivals)
                assert all(entry[0][-1] in state.work for entry in bucket)
        delta = state.insert([f("E", 2, 3)])
        state.extend(delta, survivors)
        assert self.keys(survivors) == before

    def test_delta_violations_use_a_new_fact(self):
        egd = parse_dependency("T(x, y), T(x, z) -> y = z.")
        copy = rule("R(x, y) -> T(x, y).")
        state, _groundings = self.chased_state(
            Instance([f("R", "a", "b"), f("R", "c", "d")]), [copy], [egd]
        )
        delta = state.insert([f("R", "a", "e")])
        since = state.arrival
        _rounds, derived = state.extend(delta)
        found = state.violations(delta + derived, since)
        # Both orientations of the one new clash, nothing about old facts.
        assert sorted((v.lhs_value, v.rhs_value) for v in found) == [
            ("b", "e"), ("e", "b")
        ]
        assert canonicalize_violations(found) == naive_violations(
            [egd], state.work
        )
