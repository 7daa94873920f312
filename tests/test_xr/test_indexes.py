"""The interned adjacency of :class:`ExchangeData` vs naive scans.

The grounding and violation indexes (``groundings_by_head``,
``occurs_in_body``, ``violations_by_fact``) exist purely for speed: every
entry must agree with a linear scan of the fact-level ``groundings`` /
``violations`` lists, and the id-based closures must agree with their
definitional fixpoints.  Checked on randomly generated fuzz scenarios and
on the genomics mapping.
"""

from hypothesis import given, settings, strategies as st

from repro.chase.batch import batch_chase
from repro.fuzz.generator import random_scenario
from repro.genomics.instances import InstanceProfile, build_instance
from repro.genomics.schema import genome_mapping
from repro.reduction.reduce import reduce_mapping
from repro.relational.instance import Instance
from repro.xr.envelope import derivable_ids
from repro.xr.exchange import ExchangeData, build_exchange_data


def exchange_for_seed(seed: int) -> ExchangeData:
    scenario = random_scenario(seed)
    reduced = reduce_mapping(scenario.mapping)
    return build_exchange_data(reduced.gav, scenario.instance)


def check_universe(data: ExchangeData) -> None:
    assert len(data.facts_by_id) == len(data.fact_ids)
    for fact_id, fact in enumerate(data.facts_by_id):
        assert data.fact_ids[fact] == fact_id
    assert set(data.facts_by_id) >= set(data.chased)
    source_names = data.mapping.source.names()
    for fact_id, fact in enumerate(data.facts_by_id):
        assert data.source_id_mask[fact_id] == (fact.relation in source_names)


def check_grounding_indexes(data: ExchangeData) -> None:
    assert len(data.grounding_bodies) == len(data.groundings)
    assert len(data.grounding_heads) == len(data.groundings)
    for index, (_rule, body_facts, head_fact) in enumerate(data.groundings):
        assert data.facts_by_id[data.grounding_heads[index]] == head_fact
        body = [data.facts_by_id[i] for i in data.grounding_bodies[index]]
        # Deduplicated, first-occurrence order.
        assert body == list(dict.fromkeys(body_facts))
    for fact_id in range(len(data.facts_by_id)):
        naive_heads = [
            index
            for index, (_r, _b, head) in enumerate(data.groundings)
            if head == data.facts_by_id[fact_id]
        ]
        assert data.groundings_by_head[fact_id] == naive_heads
        naive_bodies = [
            index
            for index, (_r, body, _h) in enumerate(data.groundings)
            if data.facts_by_id[fact_id] in body
        ]
        assert data.occurs_in_body[fact_id] == naive_bodies


def check_violation_indexes(data: ExchangeData) -> None:
    assert len(data.violation_bodies) == len(data.violations)
    for index, violation in enumerate(data.violations):
        body = [data.facts_by_id[i] for i in data.violation_bodies[index]]
        assert body == list(dict.fromkeys(violation.body_facts))
    for fact_id in range(len(data.facts_by_id)):
        naive = [
            index
            for index, violation in enumerate(data.violations)
            if data.facts_by_id[fact_id] in violation.body_facts
        ]
        assert data.violations_by_fact[fact_id] == naive


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_indexes_agree_with_naive_scans_on_fuzz_scenarios(seed):
    data = exchange_for_seed(seed)
    check_universe(data)
    check_grounding_indexes(data)
    check_violation_indexes(data)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_derivable_ids_is_the_chase_fixpoint(seed):
    """Grounding propagation from any suspect-free seed equals re-chasing."""
    data = exchange_for_seed(seed)
    source_ids = sorted(data.id_set(data.source_facts))
    seed_ids = set(source_ids[:: 2])  # an arbitrary sub-instance
    derived = derivable_ids(seed_ids, data)
    rechased = batch_chase(
        Instance(data.facts_by_id[i] for i in seed_ids),
        list(data.mapping.all_tgds()),
    )
    assert {data.facts_by_id[i] for i in derived} == set(rechased)


def test_indexes_on_genomics_instance():
    reduced = reduce_mapping(genome_mapping())
    instance = build_instance(InstanceProfile("T", 6, 0.2)).instance
    data = build_exchange_data(reduced.gav, instance)
    check_universe(data)
    check_grounding_indexes(data)
    check_violation_indexes(data)


def test_influence_cache_matches_uncached_walk():
    data = exchange_for_seed(4321)
    for fact_id in range(len(data.facts_by_id)):
        cached = data.influence_ids_of(fact_id)
        # Definitional forward closure.
        expected = {fact_id}
        frontier = [fact_id]
        while frontier:
            current = frontier.pop()
            for index in data.occurs_in_body[current]:
                head = data.grounding_heads[index]
                if head not in expected:
                    expected.add(head)
                    frontier.append(head)
        assert cached == expected
        assert data.influence_ids_of(fact_id) is cached  # memoized
