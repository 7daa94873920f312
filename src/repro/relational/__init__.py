"""Relational foundation: terms, schemas, facts, instances, and queries.

This subpackage provides the basic model-theoretic vocabulary used throughout
the library, following Section 2 ("Preliminaries") of the paper:

- values are drawn from two disjoint infinite sets, ``Const`` and ``Nulls``
  (plus *skolem terms*, which the GLAV-to-GAV reduction of Theorem 1 treats
  as constants);
- an instance is a finite set of facts over a schema;
- conjunctive queries and unions of conjunctive queries are evaluated with an
  index-backed backtracking join.
"""

from repro.relational.terms import (
    Const,
    Null,
    SkolemValue,
    Variable,
    fresh_null,
    is_constant_value,
    is_null_value,
    reset_null_counter,
)
from repro.relational.schema import RelationSymbol, Schema, SchemaMismatch
from repro.relational.instance import Fact, Instance
from repro.relational.queries import (
    Atom,
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    evaluate,
    evaluate_constants_only,
)
from repro.relational.homomorphism import find_homomorphism, is_homomorphic_to

__all__ = [
    "Const",
    "Null",
    "SkolemValue",
    "Variable",
    "fresh_null",
    "is_constant_value",
    "is_null_value",
    "reset_null_counter",
    "RelationSymbol",
    "Schema",
    "SchemaMismatch",
    "Fact",
    "Instance",
    "Atom",
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "evaluate",
    "evaluate_constants_only",
    "find_homomorphism",
    "is_homomorphic_to",
]
