"""Semantics of the GAV/skolem chase and of its grounding emission, run
on :func:`~repro.chase.batch.batch_chase`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase.batch import batch_chase
from repro.dependencies.tgds import TGD, SkolemTerm
from repro.parser import parse_dependency
from repro.relational import Fact, Instance
from repro.relational.queries import Atom
from repro.relational.terms import SkolemValue, Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def f(rel, *args):
    return Fact(rel, args)


def rule(text):
    return parse_dependency(text)


class TestGavChase:
    def test_copy_rule(self):
        result = batch_chase(Instance([f("R", "a", "b")]), [rule("R(x,y) -> T(x,y).")])
        assert f("T", "a", "b") in result
        assert f("R", "a", "b") in result  # source preserved

    def test_transitive_closure(self):
        rules = [rule("E(x,y) -> P(x,y)."), rule("P(x,y), P(y,z) -> P(x,z).")]
        chain = Instance([f("E", i, i + 1) for i in range(6)])
        result = batch_chase(chain, rules)
        assert f("P", 0, 6) in result
        assert len(result.facts_of("P")) == 21  # 6+5+4+3+2+1

    def test_skolem_head(self):
        skolem_rule = TGD([Atom("R", (X,))], [Atom("T", (X, SkolemTerm("f", [X])))])
        result = batch_chase(Instance([f("R", "a")]), [skolem_rule])
        assert f("T", "a", SkolemValue("f", ("a",))) in result

    def test_skolem_dedup_across_triggers(self):
        # Same frontier values -> same skolem value, derived once.
        skolem_rule = TGD(
            [Atom("R", (X, Y))], [Atom("T", (X, SkolemTerm("f", [X])))]
        )
        source = Instance([f("R", "a", "b"), f("R", "a", "c")])
        result = batch_chase(source, [skolem_rule])
        assert len(result.facts_of("T")) == 1

    def test_non_gav_rule_rejected(self):
        with pytest.raises(ValueError, match="GAV"):
            batch_chase(Instance(), [rule("R(x) -> T(x, z).")])

    def test_empty_rules(self):
        source = Instance([f("R", "a")])
        assert set(batch_chase(source, [])) == set(source)

    def test_constants_in_rule_body(self):
        constant_rule = rule("R('only', x) -> T(x).")
        source = Instance([f("R", "only", "a"), f("R", "other", "b")])
        result = batch_chase(source, [constant_rule])
        assert set(result.facts_of("T")) == {f("T", "a")}


def chase_groundings(instance, rules):
    """The groundings ``batch_chase`` emits while chasing ``instance``."""
    groundings: list = []
    batch_chase(instance, rules, groundings=groundings)
    return groundings


class TestEnumerateGroundings:
    def test_all_groundings_reported(self):
        rules = [rule("E(x,y), E(y,z) -> P(x,z).")]
        groundings = chase_groundings(
            Instance([f("E", 1, 2), f("E", 2, 3)]), rules
        )
        assert (
            rules[0],
            (f("E", 1, 2), f("E", 2, 3)),
            f("P", 1, 3),
        ) in groundings

    def test_tautological_groundings_dropped(self):
        trans = rule("P(x,y), P(y,z) -> P(x,z).")
        inst = Instance([f("P", "a", "a"), f("P", "a", "b")])
        groundings = chase_groundings(inst, [trans])
        for _rule, body, head in groundings:
            assert head not in body

    def test_deduplication(self):
        # Two bindings producing the same grounding appear once.
        dup = rule("R(x, y) -> T(x).")
        groundings = chase_groundings(Instance([f("R", "a", "b")]), [dup])
        assert len(groundings) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=12,
    )
)
def test_gav_chase_matches_naive_fixpoint(edges):
    """The semi-naive batch chase equals a naive fixpoint on transitive
    closure."""
    rules = [rule("E(x,y) -> P(x,y)."), rule("P(x,y), P(y,z) -> P(x,z).")]
    source = Instance(f("E", a, b) for a, b in edges)
    result = batch_chase(source, rules)

    # Naive fixpoint.
    pairs = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    assert {fact.args for fact in result.facts_of("P")} == pairs
