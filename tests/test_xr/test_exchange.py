"""Tests for exchange data: quasi-solution, groundings, violations."""

import pytest

from repro.parser import parse_mapping
from repro.reduction import reduce_mapping
from repro.relational import Fact, Instance, SchemaMismatch
from repro.xr.exchange import build_exchange_data
from repro.xr.segmentary import SegmentaryEngine


def f(rel, *args):
    return Fact(rel, args)


@pytest.fixture
def key_setup():
    mapping = parse_mapping(
        """
        SOURCE R/2. TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
        """
    )
    instance = Instance([f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e")])
    reduced = reduce_mapping(mapping)
    return build_exchange_data(reduced.gav, instance)


class TestBuildExchangeData:
    def test_quasi_solution_ignores_egds(self, key_setup):
        # Both conflicting P facts coexist in the quasi-solution.
        quasi = key_setup.quasi_solution()
        assert f("P", "a", "b") in quasi and f("P", "a", "c") in quasi

    def test_groundings_indexed(self, key_setup):
        head_id = key_setup.fact_ids[f("P", "a", "b")]
        supports = key_setup.groundings_by_head[head_id]
        assert len(supports) == 1
        _rule, body, head = key_setup.groundings[supports[0]]
        assert body == (f("R", "a", "b"),)
        assert head == f("P", "a", "b")

    def test_occurs_in_body_index(self, key_setup):
        body_id = key_setup.fact_ids[f("R", "a", "b")]
        indexes = key_setup.occurs_in_body[body_id]
        heads = {key_setup.groundings[i][2] for i in indexes}
        assert f("P", "a", "b") in heads
        assert {key_setup.grounding_heads[i] for i in indexes} == {
            key_setup.fact_ids[f("P", "a", "b")]
        }

    def test_violations_found(self, key_setup):
        assert len(key_setup.violations) == 1
        violation = key_setup.violations[0]
        assert {violation.lhs_value, violation.rhs_value} == {"b", "c"}

    def test_non_gav_mapping_rejected(self):
        mapping = parse_mapping(
            """
            SOURCE R/1. TARGET T/2.
            R(x) -> T(x, y).
            """
        )
        with pytest.raises(ValueError, match="gav"):
            build_exchange_data(mapping, Instance())

    def test_wrong_source_arity_rejected(self):
        """A source fact of the wrong arity is refused before the chase
        (whose index projections would raise IndexError on it)."""
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET P/2.
            R(x, y) -> P(x, y).
            """
        )
        instance = Instance([f("R", "a", "b"), f("R", "d")])
        with pytest.raises(SchemaMismatch, match=r"R\('d'\) has 1 value"):
            build_exchange_data(reduce_mapping(mapping).gav, instance)
        with pytest.raises(ValueError, match="declares 2"):
            SegmentaryEngine(mapping, instance).exchange()

    def test_source_and_target_fact_partition(self, key_setup):
        targets = key_setup.target_facts()
        assert all(fact.relation != "R" for fact in targets)
        assert key_setup.source_facts == {
            f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e"),
        }


class TestFindViolations:
    def test_satisfied_egd_no_violation(self):
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET P/2.
            R(x, y) -> P(x, y).
            P(x, y), P(x, z) -> y = z.
            """
        )
        reduced = reduce_mapping(mapping)
        data = build_exchange_data(reduced.gav, Instance([f("R", "a", "b")]))
        assert data.violations == []

    def test_constants_only_egd_ignores_skolems(self):
        # One skolem merging with one constant is not a violation.
        mapping = parse_mapping(
            """
            SOURCE R/2, S/2. TARGET T/2.
            R(x, y) -> T(x, z).
            S(x, y) -> T(x, y).
            T(x, y), T(x, z) -> y = z.
            """
        )
        reduced = reduce_mapping(mapping)
        data = build_exchange_data(
            reduced.gav, Instance([f("R", "a", "b"), f("S", "a", "c")])
        )
        assert data.violations == []

    def test_violation_through_skolem_chain(self):
        # Two constants forced together through the null: violation.
        mapping = parse_mapping(
            """
            SOURCE R/2, S/2. TARGET T/2.
            R(x, y) -> T(x, z).
            S(x, y) -> T(x, y).
            T(x, y), T(x, z) -> y = z.
            """
        )
        reduced = reduce_mapping(mapping)
        data = build_exchange_data(
            reduced.gav,
            Instance([f("R", "a", "x"), f("S", "a", "b"), f("S", "a", "c")]),
        )
        values = {
            frozenset((v.lhs_value, v.rhs_value)) for v in data.violations
        }
        assert frozenset(("b", "c")) in values
