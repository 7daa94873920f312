"""repro: XR-Certain query answering in data exchange.

A complete reimplementation of *Practical Query Answering in Data Exchange
Under Inconsistency-Tolerant Semantics* (ten Cate, Halpert, Kolaitis,
EDBT 2016): schema mappings, the chase, the GLAV-to-GAV reduction, a
disjunctive-logic-programming solver (the role clingo plays in the paper),
the monolithic and segmentary XR-Certain engines, and the UCSC Genome
Browser benchmark scenario.

Quickstart::

    from repro import (
        parse_mapping, parse_query, Instance, Fact, SegmentaryEngine,
    )

    mapping = parse_mapping('''
        SOURCE R/2.  TARGET P/2.
        R(x, y) -> P(x, y).
        P(x, y), P(x, z) -> y = z.
    ''')
    instance = Instance([Fact("R", ("a", "b")), Fact("R", ("a", "c"))])
    engine = SegmentaryEngine(mapping, instance)
    answers = engine.answer(parse_query("q(x) :- P(x, y)."))
"""

from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Const,
    Fact,
    Instance,
    Null,
    RelationSymbol,
    Schema,
    SkolemValue,
    UnionOfConjunctiveQueries,
    Variable,
    evaluate,
    evaluate_constants_only,
)
from repro.dependencies import EGD, TGD, SchemaMapping, is_weakly_acyclic
from repro.parser import (
    parse_dependency,
    parse_instance,
    parse_mapping,
    parse_program,
    parse_query,
)
from repro.chase import (
    canonical_universal_solution,
    has_solution,
    standard_chase,
)
from repro.reduction import ReducedMapping, reduce_mapping
from repro.xr import (
    MonolithicEngine,
    SegmentaryEngine,
    source_repairs,
    xr_certain_oracle,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Const",
    "EGD",
    "Fact",
    "Instance",
    "MonolithicEngine",
    "Null",
    "ReducedMapping",
    "RelationSymbol",
    "Schema",
    "SchemaMapping",
    "SegmentaryEngine",
    "SkolemValue",
    "TGD",
    "UnionOfConjunctiveQueries",
    "Variable",
    "canonical_universal_solution",
    "evaluate",
    "evaluate_constants_only",
    "has_solution",
    "is_weakly_acyclic",
    "parse_dependency",
    "parse_instance",
    "parse_mapping",
    "parse_program",
    "parse_query",
    "reduce_mapping",
    "source_repairs",
    "standard_chase",
    "xr_certain_oracle",
    "__version__",
]
