"""Grounding queries into candidate answers and their support sets.

Section 6.4: a UCQ is turned into new GAV tgds deriving a fresh query
relation; the *candidate answers* (Definition 2) are its groundings over the
canonical quasi-solution, and each grounding's body is one support set of
the candidate fact.  Answers are restricted to constants (``q↓``).
"""

from __future__ import annotations

from repro.chase.batch import join_bodies
from repro.relational.instance import Fact, Instance
from repro.relational.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.relational.terms import is_constant_value

QUERY_RELATION_PREFIX = "__q_"


def query_relation_name(query_name: str) -> str:
    return QUERY_RELATION_PREFIX + query_name


def ground_query(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    chased: Instance,
) -> list[tuple[Fact, tuple[Fact, ...]]]:
    """All (candidate fact, support set) pairs of the query over ``chased``.

    Each disjunct body is one batch join
    (:func:`~repro.chase.batch.join_bodies`) whose rows carry the matched
    facts, so a support set is the row's body facts — ``chased``'s own
    objects — with repeats dropped.  Only bindings whose answer values
    are all constants are kept: skolem values stand for labelled nulls
    and cannot be certain answers.
    """
    disjuncts = (
        [query] if isinstance(query, ConjunctiveQuery) else list(query.disjuncts)
    )
    relation = query_relation_name(query.name)
    # Answer tuple -> its candidate fact, or None when it holds a null.
    candidates: dict[tuple, Fact | None] = {}
    results: list[tuple[Fact, tuple[Fact, ...]]] = []
    seen: set[tuple[Fact, tuple[Fact, ...]]] = set()
    joins = join_bodies(chased, ((d.body, d.head_vars) for d in disjuncts))
    for rows, answer_of, body_of in joins:
        for row in rows:
            answer = answer_of(row)
            if answer in candidates:
                candidate = candidates[answer]
            else:
                candidate = candidates[answer] = (
                    Fact(relation, answer)
                    if all(map(is_constant_value, answer))
                    else None
                )
            if candidate is None:
                continue
            key = (candidate, tuple(dict.fromkeys(body_of(row))))
            size = len(seen)
            seen.add(key)  # one hash pass where `in` + `add` take two
            if len(seen) > size:
                results.append(key)
    return results


def answers_from_facts(facts: set[Fact] | frozenset[Fact]) -> set[tuple]:
    """Extract the answer tuples from accepted query-relation facts."""
    return {fact.args for fact in facts}
