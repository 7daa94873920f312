"""Query grounding against the naive reference.

:func:`repro.xr.queries.ground_query` (batch joins whose rows carry the
matched facts) must produce the same *multiset* of ``(candidate,
support)`` pairs as the substitution-based reference of
:mod:`tests.naive_queries` — on the Table 3 genomics queries, on a TPC-H
cell, and on hand cases for each rule the grounding keeps: constants in
the body, repeated variables, support dedup, the constants-only answer
filter, supports shared across UCQ disjuncts, empty relations.
"""

from collections import Counter

import pytest

from repro.bench.micro import parse_scenario_name
from repro.genomics.instances import build_instance
from repro.genomics.queries import QUERY_SUITE, query_by_name
from repro.genomics.schema import genome_mapping
from repro.parser import parse_query
from repro.reduction.reduce import reduce_mapping
from repro.relational import Fact, Instance
from repro.relational.queries import UnionOfConjunctiveQueries
from repro.relational.terms import Null, SkolemValue
from repro.scenarios.tpch import tpch_scenario
from repro.xr.exchange import build_exchange_data
from repro.xr.queries import ground_query
from tests.naive_queries import naive_ground_query


def f(rel, *args):
    return Fact(rel, args)


def assert_same_groundings(query, chased):
    """Both groundings agree as multisets; returns the batch one."""
    groundings = ground_query(query, chased)
    assert Counter(groundings) == Counter(naive_ground_query(query, chased))
    return groundings


@pytest.fixture(scope="module", params=["S3", "M9"])
def genomics(request):
    reduced = reduce_mapping(genome_mapping())
    instance = build_instance(parse_scenario_name(request.param)).instance
    return reduced, build_exchange_data(reduced.gav, instance).chased


@pytest.mark.parametrize("name", QUERY_SUITE)
def test_table3_queries(genomics, name):
    reduced, chased = genomics
    groundings = assert_same_groundings(
        reduced.rewrite(query_by_name(name)), chased
    )
    assert groundings


TPCH_JOINS = (
    "q(o, rk) :- order_customer(o, c, nk), order_nation(o, nk, rk).",
    "q(o, n) :- t_orders(o, c, st), t_customer(c, cn, n, mk).",
    "q(o, p, av) :- line_supply(o, p, s, av), t_partsupp(p, s, av2).",
    "q(o) :- t_lineitem(o, p, s, q), t_lineitem(o, p2, s2, q2).",
)


def test_tpch_cell():
    scenario = tpch_scenario(0.01, 0.2, 0)
    reduced = reduce_mapping(scenario.mapping)
    chased = build_exchange_data(reduced.gav, scenario.instance).chased
    scans = [
        f"q(x0) :- {relation.name}("
        + ", ".join(f"x{i}" for i in range(relation.arity)) + ")."
        for relation in scenario.mapping.target
    ]
    for text in (*scans, *TPCH_JOINS):
        query = reduced.rewrite(parse_query(text))
        assert assert_same_groundings(query, chased)


HAND = Instance(
    [
        f("P", "a", "b"),
        f("P", "a", "c"),
        f("P", "d", "d"),
        f("P", "e", SkolemValue("sk", ("e",))),
        f("P", Null(1), "b"),
        f("S", "b"),
        f("S", "d"),
    ]
)


class TestHandCases:
    def test_constant_in_body(self):
        query = parse_query("q(x) :- P(x, 'b').")
        groundings = assert_same_groundings(query, HAND)
        assert {candidate.args for candidate, _ in groundings} == {("a",)}

    def test_repeated_variable_in_one_atom(self):
        query = parse_query("q(x) :- P(x, x).")
        groundings = assert_same_groundings(query, HAND)
        assert groundings == [(Fact("__q_q", ("d",)), (f("P", "d", "d"),))]

    def test_repeated_atom_dedups_the_support(self):
        groundings = assert_same_groundings(
            parse_query("q(x) :- P(x, y), P(x, y)."), HAND
        )
        assert all(len(support) == 1 for _, support in groundings)

    def test_self_join_dedups_supports_of_one_fact(self):
        groundings = assert_same_groundings(
            parse_query("q(x) :- P(x, y), P(x, z), P(x, w)."), HAND
        )
        supports = Counter(support for _, support in groundings)
        assert max(supports.values()) == 1
        assert (f("P", "a", "b"), f("P", "a", "c")) in supports

    def test_skolem_and_null_answers_are_filtered(self):
        values = assert_same_groundings(parse_query("q(y) :- P(x, y)."), HAND)
        assert {candidate.args for candidate, _ in values} == {
            ("b",), ("c",), ("d",)
        }
        keys = assert_same_groundings(parse_query("q(x) :- P(x, y)."), HAND)
        assert {candidate.args for candidate, _ in keys} == {
            ("a",), ("d",), ("e",)
        }

    def test_ucq_disjuncts_sharing_supports(self):
        texts = (
            "q(x) :- P(x, y), S(y).",
            "q(x) :- P(x, z), S(z).",
            "q(x) :- P(x, w).",
            "q(x) :- P(x, v), P(x, v).",
        )
        disjuncts = [parse_query(text) for text in texts]
        groundings = assert_same_groundings(
            UnionOfConjunctiveQueries(disjuncts, name="q"), HAND
        )
        each = [ground_query(disjunct, HAND) for disjunct in disjuncts]
        assert set(groundings) == set().union(*each)
        assert len(groundings) == len(set(groundings)) < sum(map(len, each))

    @pytest.mark.parametrize(
        "text", ["q() :- P(x, y).", "q(x, z) :- P(x, y), S(z)."]
    )
    def test_boolean_and_cross_product(self, text):
        assert assert_same_groundings(parse_query(text), HAND)

    @pytest.mark.parametrize(
        "text",
        [
            "q(x) :- E(x).",  # an empty relation
            "q(x) :- P(x, y), E(y).",
            "q(x) :- P(x).",  # wrong arities
            "q(x) :- P(x, y, z).",
        ],
    )
    def test_matches_nothing(self, text):
        assert assert_same_groundings(parse_query(text), HAND) == []

    def test_supports_are_the_instance_facts(self):
        stored = {fact: fact for fact in HAND}
        query = parse_query("q(x) :- P(x, y), S(y).")
        for _, support in ground_query(query, HAND):
            assert all(stored[fact] is fact for fact in support)
