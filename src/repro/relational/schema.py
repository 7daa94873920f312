"""Schemas: finite sets of relation symbols with designated arities."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class SchemaMismatch(ValueError):
    """A fact that does not fit the schema it was checked against."""


class RelationSymbol:
    """A relation symbol with a name, an arity, and optional attribute names.

    Attribute names are purely documentation (they make the genomics schema
    readable); positional indices are what the engine uses.
    """

    __slots__ = ("name", "arity", "attributes")

    def __init__(
        self,
        name: str,
        arity: int,
        attributes: Sequence[str] | None = None,
    ):
        if arity < 0:
            raise ValueError(f"arity must be non-negative, got {arity}")
        if attributes is not None and len(attributes) != arity:
            raise ValueError(
                f"{name}: {len(attributes)} attribute names for arity {arity}"
            )
        self.name = name
        self.arity = arity
        self.attributes = tuple(attributes) if attributes is not None else None

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationSymbol)
            and self.name == other.name
            and self.arity == other.arity
        )

    def __hash__(self) -> int:
        return hash((self.name, self.arity))


class Schema:
    """A finite set of relation symbols, indexed by name."""

    __slots__ = ("_relations",)

    def __init__(self, relations: Iterable[RelationSymbol] = ()):
        self._relations: dict[str, RelationSymbol] = {}
        for rel in relations:
            self.add(rel)

    def add(self, relation: RelationSymbol) -> None:
        existing = self._relations.get(relation.name)
        if existing is not None and existing.arity != relation.arity:
            raise ValueError(
                f"relation {relation.name} redeclared with arity "
                f"{relation.arity} (was {existing.arity})"
            )
        self._relations[relation.name] = relation

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> RelationSymbol:
        return self._relations[name]

    def get(self, name: str) -> RelationSymbol | None:
        return self._relations.get(name)

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> set[str]:
        return set(self._relations)

    def arity(self, name: str) -> int:
        return self._relations[name].arity

    def check_arities(self, facts: Iterable) -> None:
        """Raise :class:`SchemaMismatch` for the first fact of a relation
        this schema declares whose number of values differs from the
        declared arity (facts of undeclared relations pass)."""
        relations = self._relations
        for fact in facts:
            relation = relations.get(fact.relation)
            if relation is not None and len(fact.args) != relation.arity:
                raise SchemaMismatch(
                    f"{fact!r} has {len(fact.args)} value(s), but "
                    f"{relation!r} declares {relation.arity}"
                )

    def union(self, other: "Schema") -> "Schema":
        """The union of two schemas; arities must agree on shared names."""
        merged = Schema(self)
        for rel in other:
            merged.add(rel)
        return merged

    def is_disjoint_from(self, other: "Schema") -> bool:
        return not (self.names() & other.names())

    def __repr__(self) -> str:
        rels = ", ".join(sorted(repr(r) for r in self))
        return f"Schema({rels})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._relations == other._relations
