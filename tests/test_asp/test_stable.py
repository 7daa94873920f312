"""Tests for stable model computation (normal, disjunctive, HCF shifting)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.graphs import tarjan_scc
from repro.asp.stable import (
    StableModelEngine,
    _positive_adjacency,
    is_head_cycle_free,
    shift_disjunctions,
)
from repro.asp.syntax import AtomTable, GroundProgram, GroundRule
from repro.genomics import build_instance, genome_mapping
from repro.genomics.queries import all_queries
from repro.relational.instance import Fact
from repro.xr.segmentary import SegmentaryEngine


def program_over(num_atoms, rules):
    program = GroundProgram(AtomTable())
    for index in range(num_atoms):
        program.atoms.intern(Fact("A", (index + 1,)))
    program.rules = list(rules)
    return program


def brute_stable(num_atoms, rules):
    def satisfies(model, rule):
        if any(b not in model for b in rule.body_pos):
            return True
        if any(g in model for g in rule.body_neg):
            return True
        return any(h in model for h in rule.head)

    def reduct(model):
        return [
            GroundRule(r.head, r.body_pos, ())
            for r in rules
            if not any(g in model for g in r.body_neg)
        ]

    def is_model(model, reduct_rules):
        return all(satisfies(model, r) for r in reduct_rules)

    atoms = list(range(1, num_atoms + 1))
    subsets = [
        frozenset(a for a in atoms if bits[a - 1])
        for bits in itertools.product([0, 1], repeat=num_atoms)
    ]
    return {
        model
        for model in subsets
        if is_model(model, reduct(model))
        and not any(
            other < model and is_model(other, reduct(model)) for other in subsets
        )
    }


class TestNormalPrograms:
    def test_facts_only(self):
        program = program_over(2, [GroundRule((1,)), GroundRule((2,))])
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1, 2})
        }

    def test_definite_rules_have_least_model(self):
        rules = [GroundRule((1,)), GroundRule((2,), (1,)), GroundRule((3,), (2,))]
        program = program_over(3, rules)
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1, 2, 3})
        }

    def test_positive_cycle_is_unfounded(self):
        rules = [GroundRule((1,), (2,)), GroundRule((2,), (1,))]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {frozenset()}

    def test_even_loop_two_models(self):
        # a :- not b.  b :- not a.
        rules = [
            GroundRule((1,), (), (2,)),
            GroundRule((2,), (), (1,)),
        ]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_odd_loop_no_model(self):
        # a :- not a.
        program = program_over(1, [GroundRule((1,), (), (1,))])
        assert list(StableModelEngine(program).stable_models()) == []

    def test_constraint_filters_models(self):
        rules = [
            GroundRule((1,), (), (2,)),
            GroundRule((2,), (), (1,)),
            GroundRule((), (1,)),  # forbid a
        ]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {frozenset({2})}


class TestDisjunctivePrograms:
    def test_disjunctive_fact(self):
        program = program_over(2, [GroundRule((1, 2))])
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_disjunction_with_absorption(self):
        # a | b.  a :- b.  Minimality leaves only {a}.
        rules = [GroundRule((1, 2)), GroundRule((1,), (2,))]
        program = program_over(2, rules)
        assert set(StableModelEngine(program).stable_models()) == {frozenset({1})}

    def test_non_hcf_program(self):
        # a | b.  a :- b.  b :- a.  -> {a, b} is the only stable model.
        rules = [
            GroundRule((1, 2)),
            GroundRule((1,), (2,)),
            GroundRule((2,), (1,)),
        ]
        program = program_over(2, rules)
        assert not is_head_cycle_free(rules)
        assert set(StableModelEngine(program).stable_models()) == {
            frozenset({1, 2})
        }

    def test_limit(self):
        program = program_over(2, [GroundRule((1, 2))])
        assert len(list(StableModelEngine(program).stable_models(limit=1))) == 1


class TestShifting:
    def test_hcf_detection(self):
        disjunctive = [GroundRule((1, 2))]
        assert is_head_cycle_free(disjunctive)
        cyclic = [
            GroundRule((1, 2)),
            GroundRule((1,), (2,)),
            GroundRule((2,), (1,)),
        ]
        assert not is_head_cycle_free(cyclic)

    def test_shift_structure(self):
        shifted = shift_disjunctions([GroundRule((1, 2), (3,))])
        assert GroundRule((1,), (3,), (2,)) in shifted
        assert GroundRule((2,), (3,), (1,)) in shifted

    def test_shift_preserves_models_when_hcf(self):
        rules = [GroundRule((1, 2)), GroundRule((), (1, 2))]
        program = program_over(2, rules)
        shifted_engine = StableModelEngine(program, auto_shift=True)
        direct_engine = StableModelEngine(program, auto_shift=False)
        assert set(shifted_engine.stable_models()) == set(
            direct_engine.stable_models()
        )


class TestIncremental:
    def test_add_atom_clause_steers_enumeration(self):
        program = program_over(2, [GroundRule((1, 2))])
        engine = StableModelEngine(program)
        engine.add_atom_clause([-1])  # forbid atom 1
        models = list(engine.stable_models())
        assert models == [frozenset({2})]

    def test_atom_clause_bounds_checked(self):
        program = program_over(1, [GroundRule((1,))])
        engine = StableModelEngine(program)
        with pytest.raises(ValueError):
            engine.add_atom_clause([99])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_programs_match_brute_force(data):
    num_atoms = data.draw(st.integers(1, 5))
    num_rules = data.draw(st.integers(0, 8))
    rules = []
    atoms = st.integers(1, num_atoms)
    for _ in range(num_rules):
        head = tuple(
            data.draw(st.lists(atoms, max_size=2, unique=True))
        )
        body_pos = tuple(
            data.draw(st.lists(atoms, max_size=2, unique=True))
        )
        body_neg = tuple(
            data.draw(st.lists(atoms, max_size=2, unique=True))
        )
        if set(head) & set(body_pos):
            continue
        rules.append(GroundRule(head, body_pos, body_neg))
    program = program_over(num_atoms, rules)
    expected = brute_stable(num_atoms, rules)
    assert set(StableModelEngine(program).stable_models(limit=200)) == expected
    assert (
        set(StableModelEngine(program, auto_shift=False).stable_models(limit=200))
        == expected
    )


class TestUpfrontLoops:
    """The engine computes the SCCs once, over the rules it was given, and
    uses them both for the head-cycle test and for the up-front loop
    formulas of the rules it keeps (shifted and, when compact, with
    duplicates dropped).  Those loops must be exactly the ones a fresh
    Tarjan run over the final rules finds, in the same order."""

    @staticmethod
    def fresh_loops(engine):
        return [
            frozenset(component)
            for component in tarjan_scc(_positive_adjacency(engine.rules))
            if len(component) >= 2
        ]

    @pytest.mark.parametrize("compact", [False, True])
    def test_shifted_program_with_duplicates(self, compact):
        rules = [
            GroundRule((1, 2)),
            GroundRule((3,), (4,)),
            GroundRule((4,), (3,)),
            GroundRule((3,), (1,)),
            GroundRule((4,), (3,)),  # duplicate
            GroundRule((5,), (6,)),
            GroundRule((6,), (5,), (1,)),
            GroundRule((1, 2)),  # duplicate
            GroundRule((2,), (), (1,)),  # the shift of rule 1 for head 2
        ]
        engine = StableModelEngine(program_over(6, rules), compact=compact)
        assert engine.was_shifted
        assert len(engine.rules) == (7 if compact else 11)
        assert engine.upfront_loops == self.fresh_loops(engine)
        assert set(engine.upfront_loops) == {
            frozenset({3, 4}), frozenset({5, 6})
        }

    @pytest.mark.parametrize("compact", [False, True])
    def test_random_programs(self, compact):
        rng = random.Random(7)
        for _ in range(300):
            num_atoms = rng.randint(2, 9)
            rules = []
            for _ in range(rng.randint(1, 14)):
                head = tuple(rng.sample(
                    range(1, num_atoms + 1), rng.choice((1, 1, 2))
                ))
                body_pos = tuple(rng.sample(
                    range(1, num_atoms + 1), rng.randint(0, 2)
                ))
                body_neg = tuple(rng.sample(
                    range(1, num_atoms + 1), rng.randint(0, 1)
                ))
                rules.append(GroundRule(head, body_pos, body_neg))
            rules += rng.sample(rules, rng.randint(0, len(rules)))
            engine = StableModelEngine(
                program_over(num_atoms, rules), compact=compact
            )
            assert engine.upfront_loops == self.fresh_loops(engine)

    def test_xr_family_programs(self, monkeypatch):
        """The engines a real query phase builds (genomics S3, the
        Table 3 queries) agree too."""
        engines = []
        original = StableModelEngine.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            engines.append(self)

        monkeypatch.setattr(StableModelEngine, "__init__", recording)
        with SegmentaryEngine(
            genome_mapping(), build_instance("S3").instance
        ) as engine:
            for _name, query in all_queries():
                engine.answer(query)
        assert engines
        assert any(engine.upfront_loops for engine in engines)
        for engine in engines:
            assert engine.upfront_loops == self.fresh_loops(engine)
