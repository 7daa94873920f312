"""A naive, test-only reference for query grounding.

:func:`naive_ground_query` grounds a query the obvious way: the
backtracking matcher of :mod:`repro.relational.queries` yields one
variable binding (a dict) per match, and each support set is rebuilt by
instantiating every body atom under the binding.  The tests hold
:func:`repro.xr.queries.ground_query` (batch joins whose rows carry the
matched facts) to it.
"""

from __future__ import annotations

from repro.relational.instance import Fact, Instance
from repro.relational.queries import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    match_atoms,
)
from repro.relational.terms import is_constant_value
from repro.xr.queries import query_relation_name


def naive_ground_query(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    chased: Instance,
) -> list[tuple[Fact, tuple[Fact, ...]]]:
    """All (candidate fact, support set) pairs of the query over ``chased``:
    constants-only answers, repeated support facts dropped, each pair once."""
    disjuncts = (
        [query] if isinstance(query, ConjunctiveQuery) else list(query.disjuncts)
    )
    relation = query_relation_name(query.name)
    results: list[tuple[Fact, tuple[Fact, ...]]] = []
    seen: set[tuple[Fact, tuple[Fact, ...]]] = set()
    for disjunct in disjuncts:
        for binding in match_atoms(chased, list(disjunct.body)):
            answer = tuple(binding[v] for v in disjunct.head_vars)
            if not all(is_constant_value(value) for value in answer):
                continue
            candidate = Fact(relation, answer)
            support = tuple(
                dict.fromkeys(atom.substitute(binding) for atom in disjunct.body)
            )
            key = (candidate, support)
            if key not in seen:
                seen.add(key)
                results.append(key)
    return results
