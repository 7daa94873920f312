"""A naive, test-only reference for the exchange phase.

Computes the three exchange artifacts — the chase, the rule groundings
(support sets) and the egd violations — the obvious way, over the
backtracking matcher of :mod:`repro.relational.queries`, with none of the
batch engine's machinery (no hash indexes, no pivot plans, no old/new
split).  The tests hold :mod:`repro.chase.batch` to it:

- :func:`naive_chase` — a strict-round naive fixpoint: every round
  re-evaluates every rule body over the whole instance and adds the heads
  not yet present.  Strict rounds make its ``rounds`` / ``derived_facts``
  counters the batch chase's too;
- :func:`naive_groundings` — per-rule grounding enumeration over a
  finished instance, tautological groundings (head in own body) dropped;
- :func:`naive_violations` — the egd violation scan with the
  constants-only rule;
- :func:`naive_exchange_data` — all three, canonicalized into an
  :class:`~repro.xr.exchange.ExchangeData` by the same ordering code as
  the real build, so every field can be compared for equality.
"""

from __future__ import annotations

from repro.dependencies.tgds import SkolemTerm
from repro.relational.instance import Fact, Instance
from repro.relational.queries import match_atoms
from repro.relational.terms import Const, Variable, is_constant_value
from repro.xr.exchange import (
    ExchangeData,
    Violation,
    _build_fact_indexes,
    canonicalize_violations,
)


def _instantiate(atom, binding) -> Fact:
    """The fact of a rule atom under a total binding (skolem heads too)."""
    args = []
    for term in atom.terms:
        if isinstance(term, Variable):
            args.append(binding[term])
        elif isinstance(term, Const):
            args.append(term.value)
        elif isinstance(term, SkolemTerm):
            args.append(term.ground(binding))
        else:
            raise TypeError(f"unexpected term {term!r}")
    return Fact(atom.relation, args)


def naive_chase(instance: Instance, rules, stats: dict | None = None) -> Instance:
    """The least fixpoint of GAV ``rules`` over a copy of ``instance``."""
    work = instance.copy()
    rounds = 0
    changed = bool(work)  # the input facts are the first round's news
    while changed:
        rounds += 1
        new = {
            head
            for rule in rules
            for binding in match_atoms(work, list(rule.body))
            if (head := _instantiate(rule.head[0], binding)) not in work
        }
        for fact in new:
            work.add(fact)
        changed = bool(new)
    if stats is not None:
        stats["rounds"] = rounds
        stats["derived_facts"] = len(work) - len(instance)
    return work


def naive_groundings(rules, instance: Instance) -> list:
    """Every non-tautological ``(rule, body_facts, head_fact)`` over
    ``instance``, rule by rule."""
    groundings = []
    for rule in rules:
        for binding in match_atoms(instance, list(rule.body)):
            body = tuple(_instantiate(atom, binding) for atom in rule.body)
            head = _instantiate(rule.head[0], binding)
            if head not in body:
                groundings.append((rule, body, head))
    return groundings


def naive_violations(egds, chased: Instance) -> list[Violation]:
    """Every grounded egd whose equality fails, canonicalized."""
    violations = []
    for egd in egds:
        for binding in match_atoms(chased, list(egd.body)):
            lhs = binding[egd.lhs]
            rhs = binding[egd.rhs] if isinstance(egd.rhs, Variable) else egd.rhs.value
            if lhs == rhs:
                continue
            if egd.constants_only and not (
                is_constant_value(lhs) and is_constant_value(rhs)
            ):
                continue
            body = tuple(_instantiate(atom, binding) for atom in egd.body)
            violations.append(Violation(egd, body, lhs, rhs))
    return canonicalize_violations(violations)


def naive_exchange_data(mapping, source_instance: Instance) -> ExchangeData:
    """The exchange data of a ``gav+(gav, egd)`` mapping, computed naively."""
    tgds = list(mapping.all_tgds())
    chased = naive_chase(source_instance, tgds)
    data = ExchangeData(
        mapping=mapping,
        source_instance=source_instance,
        chased=chased,
        groundings=naive_groundings(tgds, chased),
        violations=naive_violations(mapping.target_egds, chased),
    )
    _build_fact_indexes(data, tgds)
    return data
