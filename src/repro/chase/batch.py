"""Set-at-a-time batch evaluation for the exchange phase.

The tuple-at-a-time evaluator (:mod:`repro.chase.gav`,
:mod:`repro.relational.queries`) walks one candidate fact at a time and
copies a binding dict per successful match.  This module replaces those
inner loops with **batch operators** over tuple rows:

- a binding is a plain ``tuple`` laid out by a fixed slot assignment
  compiled per plan: each atom's new variables, then the stored fact it
  matched, so the body facts of a binding ride along with its values
  (no dicts, no copies, no re-instantiation by substitution);
- each join level is a compiled :class:`_AtomStep` probing a multi-column
  **hash index** over the relation extension — built once per
  (relation, key-positions) signature, shared across rules, and maintained
  incrementally as the chase derives new facts;
- constant filters and repeated-variable checks are folded into the index
  build, so they run once per stored fact instead of once per probe.

:func:`batch_chase` is a duplicate-free semi-naive chase: every binding
is found exactly once, in the round its last body fact arrives, so it can
emit the groundings (support sets) of the chased instance as it goes.

The one-shot joins over a finished instance (:func:`find_violations_batch`,
:func:`enumerate_groundings_batch`) ask a small **planner**
(:func:`plan_mode`) per body: ``nested`` when the relations involved are
tiny (an index build would cost more than it saves), ``hash`` otherwise.
Both modes produce the same row *set*; order differences are absorbed by
the canonical sorting in :mod:`repro.xr.exchange`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.chase.gav import _check_rules, compile_substituter
from repro.dependencies.egds import EGD
from repro.dependencies.tgds import TGD, SkolemTerm
from repro.relational.instance import Fact, Instance
from repro.relational.queries import Atom, match_atoms, plan_join_order
from repro.relational.terms import Const, SkolemValue, Variable, is_constant_value


@dataclass(frozen=True)
class BatchOptions:
    """Planner threshold (see :func:`plan_mode`).

    ``nested_threshold`` is the largest *total* extension size (sum over
    the body's relations) still handled by the nested-loop fallback.
    """

    nested_threshold: int = 16


DEFAULT_OPTIONS = BatchOptions()


def plan_mode(
    instance: Instance, atoms: Sequence[Atom], options: BatchOptions
) -> str:
    """Choose ``nested`` / ``hash`` for one body join."""
    total = sum(len(instance.facts_of(atom.relation)) for atom in atoms)
    return "nested" if total <= options.nested_threshold else "hash"


# --------------------------------------------------------------- compilation


def _key_projector(positions: Sequence[int]) -> Callable[[Sequence], Any]:
    """A compiled index-key projection: scalar for one column, tuple else."""
    if not positions:
        return lambda values: ()
    return itemgetter(*positions)


def _tuple_projector(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A compiled projection that always yields a tuple."""
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return itemgetter(*positions)


def _body_positions(ordered: Sequence[Atom], body: Sequence[Atom]) -> list[int]:
    """Each planned atom's position in ``body``, matched by identity (a
    body may contain equal atoms twice)."""
    taken: set[int] = set()
    positions: list[int] = []
    for atom in ordered:
        for index, candidate in enumerate(body):
            if index not in taken and candidate is atom:
                taken.add(index)
                positions.append(index)
                break
    return positions


class _AtomStep:
    """One join level of a batch plan, compiled for a fixed slot layout.

    ``key_positions``/``key_slots`` pair fact argument positions with the
    row slots they must equal (bound variables, including a variable bound
    twice within this atom); ``const_checks`` and ``same_checks`` are
    folded into the index build; ``new_positions`` are projected into the
    row extension, binding fresh slots in first-occurrence order, and the
    matched fact itself takes the slot after them (``fact_slot``; the
    layout records it under the step as key).
    """

    __slots__ = (
        "atom",
        "relation",
        "key_positions",
        "key_slots",
        "const_checks",
        "same_checks",
        "new_positions",
        "fact_slot",
        "key_of_args",
        "ext_of_args",
        "key_of_row",
        "signature",
    )

    def __init__(self, atom: Atom, layout: dict[Any, int]) -> None:
        self.atom = atom
        self.relation = atom.relation
        key_positions: list[int] = []
        key_slots: list[int] = []
        const_checks: list[tuple[int, Any]] = []
        same_checks: list[tuple[int, int]] = []
        new_positions: list[int] = []
        first_here: dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                slot = layout.get(term)
                if slot is not None:
                    key_positions.append(position)
                    key_slots.append(slot)
                elif term in first_here:
                    same_checks.append((first_here[term], position))
                else:
                    first_here[term] = position
                    new_positions.append(position)
            elif isinstance(term, Const):
                const_checks.append((position, term.value))
            else:
                raise TypeError(f"unexpected body term {term!r}")
        for variable in first_here:
            layout[variable] = len(layout)
        self.fact_slot = layout[self] = len(layout)
        self.key_positions = tuple(key_positions)
        self.key_slots = tuple(key_slots)
        self.const_checks = tuple(const_checks)
        self.same_checks = tuple(same_checks)
        self.new_positions = tuple(new_positions)
        # Compiled projections: a single-column key stays a scalar (both
        # sides of the index agree), a multi-column key is itemgetter's
        # tuple; extensions are always tuples (rows concatenate them).
        self.key_of_args = _key_projector(self.key_positions)
        self.key_of_row = _key_projector(self.key_slots)
        self.ext_of_args = _tuple_projector(self.new_positions)
        # Everything admit() looks at: two steps with equal signatures
        # build identical indexes, so the cache can share one.
        self.signature = (
            self.relation,
            self.key_positions,
            self.const_checks,
            self.same_checks,
            self.new_positions,
        )

    def admit(self, fact: Fact) -> tuple[Any, tuple] | None:
        """``(key, extension + (fact,))`` for a fact passing the filters."""
        args = fact.args
        for position, value in self.const_checks:
            if args[position] != value:
                return None
        for left, right in self.same_checks:
            if args[left] != args[right]:
                return None
        return (self.key_of_args(args), self.ext_of_args(args) + (fact,))


class _IndexCache:
    """Hash indexes over one instance, maintained incrementally.

    Keyed by step *signature* (relation, key positions, folded filters,
    projection): plans that join the same relation the same way — e.g.
    the two self-join atoms of every key egd over one relation — share a
    single index.  Each index is built exactly once from the extension
    and then extended fact-by-fact as the chase derives new rows
    (:meth:`add_fact`).  Bucket entries are ``(extension, arrival)``;
    facts present at build time arrive at 0, and since later facts are
    appended in arrival order, every bucket is sorted by arrival.
    """

    __slots__ = ("instance", "_by_signature", "_by_relation")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._by_signature: dict[tuple, dict] = {}
        self._by_relation: dict[str, list[tuple[_AtomStep, dict]]] = {}

    def index_for(self, step: _AtomStep) -> dict[Any, list[tuple]]:
        index = self._by_signature.get(step.signature)
        if index is None:
            index = {}
            admit = step.admit
            for fact in self.instance.facts_of(step.relation):
                entry = admit(fact)
                if entry is not None:
                    index.setdefault(entry[0], []).append((entry[1], 0))
            self._by_signature[step.signature] = index
            self._by_relation.setdefault(step.relation, []).append(
                (step, index)
            )
        return index

    def add_fact(self, fact: Fact, arrival: int = 0) -> None:
        for step, index in self._by_relation.get(fact.relation, ()):
            entry = step.admit(fact)
            if entry is not None:
                index.setdefault(entry[0], []).append((entry[1], arrival))


def _probe(
    step: _AtomStep,
    index: dict[Any, list[tuple]],
    rows: list[tuple],
    before: int | None = None,
) -> list[tuple]:
    """Extend every row by every matching index entry.

    With ``before`` set, only entries that arrived before it match (the
    "old" side of a semi-naive join); buckets are sorted by arrival, so
    the scan stops at the first later entry.
    """
    key_of_row = step.key_of_row
    out: list[tuple] = []
    append = out.append
    get = index.get
    if before is None:
        for row in rows:
            bucket = get(key_of_row(row))
            if bucket:
                for extension, _arrival in bucket:
                    append(row + extension)
    else:
        for row in rows:
            bucket = get(key_of_row(row))
            if bucket:
                for extension, arrival in bucket:
                    if arrival >= before:
                        break
                    append(row + extension)
    return out


_VAR, _CONST, _SKOLEM = 0, 1, 2


def compile_slot_head(
    rule: TGD, layout: dict[Any, int]
) -> Callable[[tuple], tuple]:
    """The head-argument builder of a GAV rule, compiled against a slot
    layout: it maps a row to the head fact's ``args`` tuple."""
    ops: list[tuple[int, Any]] = []
    for term in rule.head[0].terms:
        if isinstance(term, Variable):
            ops.append((_VAR, layout[term]))
        elif isinstance(term, Const):
            ops.append((_CONST, term.value))
        elif isinstance(term, SkolemTerm):
            arg_ops = tuple(
                (True, layout[argument])
                if isinstance(argument, Variable)
                else (False, argument.value)
                for argument in term.args
            )
            ops.append((_SKOLEM, (term.function, arg_ops)))
        else:
            raise TypeError(f"unexpected head term {term!r}")

    if all(kind == _VAR for kind, _payload in ops):
        # The common GAV case (no constants, no skolems): the head args
        # are a plain projection of the row.
        return _tuple_projector([payload for _kind, payload in ops])

    def head_args(row: tuple) -> tuple:
        args = []
        for kind, payload in ops:
            if kind == _VAR:
                args.append(row[payload])
            elif kind == _CONST:
                args.append(payload)
            else:
                function, arg_ops = payload
                args.append(
                    SkolemValue(
                        function,
                        tuple(
                            row[value] if is_var else value
                            for is_var, value in arg_ops
                        ),
                    )
                )
        return tuple(args)

    return head_args


# ------------------------------------------------------------- full-body join


class _BodyPlan:
    """A compiled full-body join: every atom is a probe step.

    Rows start as the empty tuple and grow one atom at a time in the
    planned order; ``body_of`` projects a row's matched facts back into
    body order.
    """

    __slots__ = ("atoms", "steps", "layout", "body_of")

    def __init__(self, instance: Instance, atoms: Sequence[Atom]) -> None:
        body = list(atoms)
        self.atoms = list(plan_join_order(instance, body, set()))
        self.layout: dict[Any, int] = {}
        self.steps = [_AtomStep(atom, self.layout) for atom in self.atoms]
        fact_slots = [0] * len(body)
        for step, position in zip(self.steps, _body_positions(self.atoms, body)):
            fact_slots[position] = step.fact_slot
        self.body_of = _tuple_projector(fact_slots)

    def rows_hash(self, cache: _IndexCache) -> list[tuple]:
        rows: list[tuple] = [()]
        for step in self.steps:
            rows = _probe(step, cache.index_for(step), rows)
            if not rows:
                return rows
        return rows

    def rows_nested(self, instance: Instance) -> list[tuple]:
        """Nested-loop rows in the same layout; matched facts are
        re-instantiated by substitution."""
        getters = [
            itemgetter(key) if isinstance(key, Variable)
            else compile_substituter(key.atom)
            for key, _slot in sorted(self.layout.items(), key=itemgetter(1))
        ]
        return [
            tuple(get(binding) for get in getters)
            for binding in match_atoms(instance, self.atoms)
        ]

    def rows(
        self, instance: Instance, cache: _IndexCache, options: BatchOptions
    ) -> tuple[str, list[tuple]]:
        mode = plan_mode(instance, self.atoms, options)
        if mode == "nested":
            return mode, self.rows_nested(instance)
        return mode, self.rows_hash(cache)


# -------------------------------------------------------------------- chase


class _PivotPlan:
    """One (rule, pivot-position) plan of the semi-naive chase.

    The pivot atom seeds rows from delta facts; ``probes`` pairs each
    remaining atom's step with an ``old_only`` flag, set for the body
    atoms *before* the pivot: they match only facts that arrived before
    the current round, so a binding with several delta facts is found
    exactly once — by the plan pivoting on its first delta atom.
    """

    __slots__ = (
        "rule",
        "seed",
        "probes",
        "head_args",
        "head_relation",
        "body_of",
        "tautology_slots",
    )

    def __init__(self, instance: Instance, rule: TGD, position: int) -> None:
        self.rule = rule
        layout: dict[Any, int] = {}
        pivot = rule.body[position]
        self.seed = _AtomStep(pivot, layout)
        rest = [atom for index, atom in enumerate(rule.body) if index != position]
        ordered = plan_join_order(instance, rest, pivot.variables())
        positions = [
            index + (index >= position) for index in _body_positions(ordered, rest)
        ]
        steps = [_AtomStep(atom, layout) for atom in ordered]
        self.probes = [
            (step, body_index < position)
            for step, body_index in zip(steps, positions)
        ]
        fact_slots = [0] * len(rule.body)
        fact_slots[position] = self.seed.fact_slot
        for step, body_index in zip(steps, positions):
            fact_slots[body_index] = step.fact_slot
        self.body_of = _tuple_projector(fact_slots)
        self.head_args = compile_slot_head(rule, layout)
        self.head_relation = rule.head[0].relation
        # A grounding is tautological when its head is one of its own body
        # facts; only atoms over the head's relation can be that fact.
        self.tautology_slots = tuple(
            fact_slots[index]
            for index, atom in enumerate(rule.body)
            if atom.relation == self.head_relation
        )

    def seed_rows(self, facts: Iterable[Fact]) -> list[tuple]:
        admit = self.seed.admit
        rows = []
        for fact in facts:
            entry = admit(fact)
            if entry is not None:
                rows.append(entry[1])
        return rows


def batch_chase(
    instance: Instance,
    rules: Sequence[TGD],
    max_rounds: int = 1_000_000,
    stats: dict[str, int] | None = None,
    groundings: list[tuple[TGD, tuple[Fact, ...], Fact]] | None = None,
) -> Instance:
    """Strict-round semi-naive fixpoint, evaluated set-at-a-time.

    Bit-identical to :func:`repro.chase.gav.gav_chase` (same fixpoint,
    same ``rounds``/``derived_facts`` counters): both use strict rounds,
    so the per-round derivation set is a pure function of the (work,
    delta) sets and the evaluation strategy cannot be observed.

    Each round splits every join into old and new: for pivot position
    *i*, body atoms before *i* match facts that arrived before the round
    and atoms after *i* match the whole instance, so each binding over
    the final instance is found exactly once.  Every fact exists as one
    object — a derived head resolves to the stored fact through
    per-relation ``{args: Fact}`` maps — and when ``groundings`` is a
    list, each non-tautological ``(rule, body_facts, head_fact)`` is
    appended to it as found: the same set
    :func:`~repro.chase.gav.enumerate_groundings` yields over the result,
    built from the chased instance's own fact objects.
    """
    _check_rules(rules)
    work = instance.copy()
    cache = _IndexCache(work)
    stored: dict[str, dict[tuple, Fact]] = {}
    for fact in work:
        stored.setdefault(fact.relation, {})[fact.args] = fact
    by_relation: dict[str, list[_PivotPlan]] = {}
    for rule in rules:
        for position in range(len(rule.body)):
            plan = _PivotPlan(work, rule, position)
            for step, _old_only in plan.probes:
                # Built now, while every fact present arrived at 0.
                cache.index_for(step)
            stored.setdefault(plan.head_relation, {})
            by_relation.setdefault(plan.seed.relation, []).append(plan)

    delta = list(work)
    rounds = 0
    while delta:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(f"batch_chase exceeded {max_rounds} rounds")
        # This round's delta arrived at rounds - 1; anything earlier is old.
        before = rounds - 1
        delta_by_relation: dict[str, list[Fact]] = {}
        for fact in delta:
            delta_by_relation.setdefault(fact.relation, []).append(fact)
        fresh: dict[str, dict[tuple, Fact]] = {}
        for relation, facts in delta_by_relation.items():
            for plan in by_relation.get(relation, ()):
                rows = plan.seed_rows(facts)
                for step, old_only in plan.probes:
                    if not rows:
                        break
                    rows = _probe(
                        step,
                        cache.index_for(step),
                        rows,
                        before if old_only else None,
                    )
                if rows:
                    _derive(plan, rows, stored, fresh, groundings)
        delta = []
        for relation, new in fresh.items():
            stored[relation].update(new)
            for head_fact in new.values():
                work.add(head_fact)
                cache.add_fact(head_fact, rounds)
                delta.append(head_fact)
    if stats is not None:
        stats["rounds"] = rounds
        stats["derived_facts"] = len(work) - len(instance)
    return work


def _derive(
    plan: _PivotPlan,
    rows: list[tuple],
    stored: dict[str, dict[tuple, Fact]],
    fresh: dict[str, dict[tuple, Fact]],
    groundings: list | None,
) -> None:
    """Resolve each row's head to its one fact object, buffering new
    facts in ``fresh`` until the round ends; emit groundings if asked."""
    relation = plan.head_relation
    known = stored[relation]
    new = fresh.setdefault(relation, {})
    head_args = plan.head_args
    rule, body_of, tautology_slots = plan.rule, plan.body_of, plan.tautology_slots
    for row in rows:
        args = head_args(row)
        head_fact = known.get(args)
        if head_fact is None:
            head_fact = new.get(args)
            if head_fact is None:
                head_fact = new[args] = Fact(relation, args)
        if groundings is not None:
            for slot in tautology_slots:
                if row[slot] is head_fact:
                    break
            else:
                groundings.append((rule, body_of(row), head_fact))


# ------------------------------------------------- groundings and violations


def enumerate_groundings_batch(
    rules: Iterable[TGD],
    instance: Instance,
    options: BatchOptions = DEFAULT_OPTIONS,
    plan_log: dict[str, str] | None = None,
) -> Iterator[tuple[TGD, tuple[Fact, ...], Fact]]:
    """Batch equivalent of :func:`repro.chase.gav.enumerate_groundings`.

    Same semantics — one grounding per binding (a binding's body facts
    determine it, so there are no duplicates), tautological groundings
    (head in own body) dropped — but each rule body is one planned batch
    join.  Yield order within a rule follows the join, which is *not* the
    tuple path's order; callers canonicalize.  The exchange takes its
    groundings from :func:`batch_chase` instead; this one-shot form serves
    instances that were not chased here.
    """
    cache = _IndexCache(instance)
    for rule in rules:
        plan = _BodyPlan(instance, rule.body)
        mode, rows = plan.rows(instance, cache, options)
        if plan_log is not None:
            plan_log[rule.label] = mode
        relation = rule.head[0].relation
        head_args = compile_slot_head(rule, plan.layout)
        for row in rows:
            body_facts = plan.body_of(row)
            head_fact = Fact(relation, head_args(row))
            if head_fact not in body_facts:
                yield rule, body_facts, head_fact


def find_violations_batch(
    egds: Sequence[EGD],
    chased: Instance,
    options: BatchOptions = DEFAULT_OPTIONS,
    plan_log: dict[str, str] | None = None,
) -> list:
    """All grounded-egd violations, one planned batch join per egd.

    Returns raw :class:`~repro.xr.exchange.Violation` objects including
    both orientations of symmetric egds; callers dedup through
    :func:`repro.xr.exchange.canonicalize_violations`, exactly as the
    tuple path does.
    """
    from repro.xr.exchange import Violation

    cache = _IndexCache(chased)
    violations = []
    for egd in egds:
        plan = _BodyPlan(chased, egd.body)
        mode, rows = plan.rows(chased, cache, options)
        if plan_log is not None:
            plan_log[egd.label] = mode
        lhs_slot = plan.layout[egd.lhs]
        rhs_is_var = isinstance(egd.rhs, Variable)
        rhs_slot = plan.layout[egd.rhs] if rhs_is_var else None
        rhs_const = None if rhs_is_var else egd.rhs.value
        constants_only = egd.constants_only
        for row in rows:
            lhs_value = row[lhs_slot]
            rhs_value = row[rhs_slot] if rhs_is_var else rhs_const
            if lhs_value == rhs_value:
                continue
            if constants_only and not (
                is_constant_value(lhs_value) and is_constant_value(rhs_value)
            ):
                continue
            violations.append(
                Violation(egd, plan.body_of(row), lhs_value, rhs_value)
            )
    return violations
