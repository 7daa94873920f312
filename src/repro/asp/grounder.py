"""Relevance-driven grounding of non-ground rules.

Grounding proceeds in two passes, the standard bottom-up recipe:

1. **Possible atoms.**  Compute an overapproximation of the atoms that can
   ever be derived, by evaluating the *positive projection* of the program
   (each rule contributes one horn rule per head atom; negation and
   comparisons are ignored) to a fixpoint with the batch chase.
2. **Instantiation.**  For every rule, match its positive body against the
   possible atoms, check the comparisons, keep negative literals only when
   their atom is possible (impossible atoms are simply false), and emit the
   ground rule over interned atom ids.

Ground rules whose head intersects their positive body are tautological and
dropped; duplicate ground rules are deduplicated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.asp.syntax import AtomTable, GroundProgram, GroundRule, Rule
from repro.chase.batch import batch_chase
from repro.dependencies.tgds import TGD
from repro.relational.instance import Fact, Instance
from repro.relational.queries import match_atoms


def compute_possible_atoms(rules: Sequence[Rule], facts: Instance) -> Instance:
    """The positive-projection fixpoint: an overapproximation of derivable atoms."""
    horn: list[TGD] = []
    for rule in rules:
        if not rule.head or not rule.body_pos:
            continue
        for head_atom in rule.head:
            horn.append(TGD(rule.body_pos, [head_atom], label=f"possible:{rule.label}"))
    return batch_chase(facts, horn)


def ground(
    rules: Sequence[Rule],
    facts: Iterable[Fact],
    atoms: AtomTable | None = None,
) -> GroundProgram:
    """Ground ``rules`` relative to ``facts``; returns a :class:`GroundProgram`.

    The input facts become unit rules of the ground program.
    """
    fact_instance = Instance(facts)
    possible = compute_possible_atoms(rules, fact_instance)

    program = GroundProgram(atoms=atoms)
    for fact in fact_instance:
        program.add_fact(fact)

    seen: set[GroundRule] = set()
    for rule in rules:
        if not rule.body_pos and rule.head:
            # Ground disjunctive "fact" rules (no positive body): only legal
            # when already ground; safety has guaranteed no variables.
            ground_rule = GroundRule(
                head=tuple(program.atoms.intern(a.substitute({})) for a in rule.head)
            )
            if ground_rule not in seen:
                seen.add(ground_rule)
                program.add_rule(ground_rule)
            continue

        for binding in match_atoms(possible, list(rule.body_pos)):
            if not all(comparison.holds(binding) for comparison in rule.comparisons):
                continue
            body_pos_facts = [atom.substitute(binding) for atom in rule.body_pos]
            head_facts = [atom.substitute(binding) for atom in rule.head]
            # Tautology: a head atom that is also a positive body atom.
            body_pos_set = set(body_pos_facts)
            if any(fact in body_pos_set for fact in head_facts):
                continue
            body_neg_ids = []
            for atom in rule.body_neg:
                negative_fact = atom.substitute(binding)
                if negative_fact in possible:
                    body_neg_ids.append(program.atoms.intern(negative_fact))
                # An impossible negative atom is false: the literal is true.
            ground_rule = GroundRule(
                head=tuple(program.atoms.intern(f) for f in head_facts),
                body_pos=tuple(program.atoms.intern(f) for f in body_pos_facts),
                body_neg=tuple(body_neg_ids),
            )
            if ground_rule not in seen:
                seen.add(ground_rule)
                program.add_rule(ground_rule)
    return program
