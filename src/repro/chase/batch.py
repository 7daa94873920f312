"""Set-at-a-time batch evaluation: the one exchange engine.

The chase, the support sets (groundings) and the egd violations of the
exchange phase are all computed here, by **batch operators** over tuple
rows:

- a binding is a plain ``tuple`` laid out by a fixed slot assignment
  compiled per plan: each atom's new variables, then the stored fact it
  matched, so the body facts of a binding ride along with its values
  (no dicts, no copies, no re-instantiation by substitution);
- each join level is a compiled :class:`_AtomStep` probing a multi-column
  **hash index** over the relation extension — built once per
  (relation, key-positions) signature, shared across rules, and maintained
  incrementally as facts arrive and leave;
- constant filters and repeated-variable checks are folded into the index
  build, so they run once per stored fact instead of once per probe.

:class:`ChaseState` is a resumable, duplicate-free semi-naive chase: every
binding is found exactly once, in the round its last body fact arrives,
so it emits the groundings (support sets) as it goes.  :func:`batch_chase`
runs it once over a whole instance; an update session keeps one alive and
extends it with each delta's new facts (:mod:`repro.incremental.chase`).

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


def compile_substituter(atom: Atom) -> Callable[[dict[Variable, Any]], Fact]:
    """A function instantiating a body atom (variables/constants only)."""
    relation = atom.relation
    ops: list[tuple[bool, Any]] = []
    for term in atom.terms:
        if isinstance(term, Variable):
            ops.append((True, term))
        elif isinstance(term, Const):
            ops.append((False, term.value))
        else:
            raise TypeError(f"cannot ground term {term!r}")

    def substitute(binding: dict[Variable, Any]) -> Fact:
        return Fact(
            relation,
            [binding[payload] if is_var else payload for is_var, payload in ops],
        )

    return substitute


def _check_rules(rules: Sequence[TGD]) -> None:
    for rule in rules:
        if not rule.is_gav():
            raise ValueError(
                f"{rule.label}: batch_chase requires GAV rules "
                "(single head atom, no existential variables)"
            )


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
    (or from an explicitly ordered fact list) and then maintained
    fact-by-fact (:meth:`add_fact`, :meth:`remove_fact`).  Bucket entries
    are ``(extension, arrival)``; facts present at build time arrive at 0,
    and since later facts are appended in arrival order and removal keeps
    the order of the rest, every bucket stays sorted by arrival.
    """

    __slots__ = ("instance", "_by_signature", "_by_relation")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._by_signature: dict[tuple, dict] = {}
        self._by_relation: dict[str, list[tuple[_AtomStep, dict]]] = {}

    def index_for(
        self, step: _AtomStep, facts: Iterable[Fact] | None = None
    ) -> dict[Any, list[tuple]]:
        """The index for ``step``; a first call builds it from ``facts``
        (default: the relation's extension, in set order)."""
        index = self._by_signature.get(step.signature)
        if index is None:
            index = {}
            admit = step.admit
            if facts is None:
                facts = self.instance.facts_of(step.relation)
            for fact in facts:
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

    def remove_fact(self, fact: Fact) -> None:
        """Drop the entries of ``fact`` (the indexed object itself)."""
        for step, index in self._by_relation.get(fact.relation, ()):
            entry = step.admit(fact)
            if entry is None:
                continue
            bucket = index[entry[0]]
            for position, (extension, _arrival) in enumerate(bucket):
                if extension[-1] is fact:
                    del bucket[position]
                    break
            if not bucket:
                del index[entry[0]]


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


def compile_violation_check(
    egd: EGD, layout: dict[Any, int], body_of: Callable[[tuple], tuple]
) -> Callable[[list[tuple], list], None]:
    """The violation test of an egd, compiled against a slot layout.

    The result appends a :class:`~repro.xr.exchange.Violation` to ``out``
    for every row whose grounded equality fails.  For constants-only
    egds, only clashes between two distinct constants count — skolem
    values stand for nulls, which the original chase would simply unify.
    """
    from repro.xr.exchange import Violation

    lhs_slot = layout[egd.lhs]
    rhs_is_var = isinstance(egd.rhs, Variable)
    rhs_slot = layout[egd.rhs] if rhs_is_var else None
    rhs_const = None if rhs_is_var else egd.rhs.value
    constants_only = egd.constants_only

    def collect(rows: list[tuple], out: list) -> None:
        for row in rows:
            lhs_value = row[lhs_slot]
            rhs_value = row[rhs_slot] if rhs_is_var else rhs_const
            if lhs_value == rhs_value:
                continue
            if constants_only and not (
                is_constant_value(lhs_value) and is_constant_value(rhs_value)
            ):
                continue
            out.append(Violation(egd, body_of(row), lhs_value, rhs_value))

    return collect


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
    """One (body, pivot-position) plan of a semi-naive join.

    The pivot atom seeds rows from delta facts; ``probes`` pairs each
    remaining atom's step with an ``old_only`` flag, set for the body
    atoms *before* the pivot: they match only facts that arrived before
    the delta, so a binding with several delta facts is found exactly
    once — by the plan pivoting on its first delta atom.
    """

    __slots__ = ("seed", "probes", "layout", "fact_slots", "body_of")

    def __init__(
        self, instance: Instance, body: Sequence[Atom], position: int
    ) -> None:
        self.layout: dict[Any, int] = {}
        pivot = body[position]
        self.seed = _AtomStep(pivot, self.layout)
        rest = [atom for index, atom in enumerate(body) if index != position]
        ordered = plan_join_order(instance, rest, pivot.variables())
        positions = [
            index + (index >= position) for index in _body_positions(ordered, rest)
        ]
        steps = [_AtomStep(atom, self.layout) for atom in ordered]
        self.probes = [
            (step, body_index < position)
            for step, body_index in zip(steps, positions)
        ]
        self.fact_slots = [0] * len(body)
        self.fact_slots[position] = self.seed.fact_slot
        for step, body_index in zip(steps, positions):
            self.fact_slots[body_index] = step.fact_slot
        self.body_of = _tuple_projector(self.fact_slots)

    def rows(
        self, facts: Iterable[Fact], cache: _IndexCache, before: int
    ) -> list[tuple]:
        """Every binding seeded by ``facts`` at the pivot, the atoms
        before it matching only facts that arrived before ``before``."""
        admit = self.seed.admit
        rows = []
        for fact in facts:
            entry = admit(fact)
            if entry is not None:
                rows.append(entry[1])
        for step, old_only in self.probes:
            if not rows:
                break
            rows = _probe(
                step, cache.index_for(step), rows, before if old_only else None
            )
        return rows


class _RulePlan(_PivotPlan):
    """A pivot plan over a GAV rule body, with its compiled head."""

    __slots__ = ("rule", "head_args", "head_relation", "tautology_slots")

    def __init__(self, instance: Instance, rule: TGD, position: int) -> None:
        super().__init__(instance, rule.body, position)
        self.rule = rule
        self.head_args = compile_slot_head(rule, self.layout)
        self.head_relation = rule.head[0].relation
        # A grounding is tautological when its head is one of its own body
        # facts; only atoms over the head's relation can be that fact.
        self.tautology_slots = tuple(
            self.fact_slots[index]
            for index, atom in enumerate(rule.body)
            if atom.relation == self.head_relation
        )


class _EgdPlan(_PivotPlan):
    """A pivot plan over an egd body, with its compiled violation test."""

    __slots__ = ("collect",)

    def __init__(self, instance: Instance, egd: EGD, position: int) -> None:
        super().__init__(instance, egd.body, position)
        self.collect = compile_violation_check(egd, self.layout, self.body_of)


def _by_relation(facts: Iterable[Fact]) -> dict[str, list[Fact]]:
    grouped: dict[str, list[Fact]] = {}
    for fact in facts:
        grouped.setdefault(fact.relation, []).append(fact)
    return grouped


class ChaseState:
    """The resumable loop state of the batch chase.

    Owns (and mutates) the ``work`` instance, plus everything a round
    needs: the signature-shared :class:`_IndexCache`, the per-relation
    ``{args: Fact}`` map through which every derived head resolves to its
    one stored object, the compiled pivot plans of the ``rules`` (and of
    the ``egds``, for :meth:`violations`), and a running ``arrival``
    counter stamping each batch of facts into the index buckets.

    Facts present at construction arrive at 0; their indexes are built in
    the order of ``order`` (every fact of ``work``; default: set order).
    :meth:`insert` opens a new arrival, :meth:`extend` chases from one,
    :meth:`retract` removes facts.  Whatever the history, a plan's old
    side (arrival before the delta) holds exactly the facts that were
    present before it, which is what makes each binding found once.
    """

    __slots__ = (
        "work", "rules", "arrival", "cache", "stored", "plans", "egd_plans"
    )

    def __init__(
        self,
        work: Instance,
        rules: Sequence[TGD],
        egds: Sequence[EGD] = (),
        order: Iterable[Fact] | None = None,
    ) -> None:
        _check_rules(rules)
        self.work = work
        self.rules = list(rules)
        self.arrival = 0
        self.cache = _IndexCache(work)
        self.stored: dict[str, dict[tuple, Fact]] = {}
        for fact in work:
            self.stored.setdefault(fact.relation, {})[fact.args] = fact
        self.plans: dict[str, list[_RulePlan]] = {}
        for rule in self.rules:
            for position in range(len(rule.body)):
                plan = _RulePlan(work, rule, position)
                self.stored.setdefault(plan.head_relation, {})
                self.plans.setdefault(plan.seed.relation, []).append(plan)
        self.egd_plans: dict[str, list[_EgdPlan]] = {}
        for egd in egds:
            for position in range(len(egd.body)):
                plan = _EgdPlan(work, egd, position)
                self.egd_plans.setdefault(plan.seed.relation, []).append(plan)
        ordered: dict[str, list[Fact]] = {}
        if order is not None:
            stored = self.stored
            ordered = _by_relation(
                stored[fact.relation][fact.args]
                for fact in order
                if fact.args in stored.get(fact.relation, ())
            )
        for plans in (*self.plans.values(), *self.egd_plans.values()):
            for plan in plans:
                for step, _old_only in plan.probes:
                    # Built now, while every fact present arrived at 0.
                    self.cache.index_for(step, ordered.get(step.relation))

    def insert(self, facts: Iterable[Fact]) -> list[Fact]:
        """Add the ``facts`` not yet in the state as one new arrival;
        returns them, in order: the delta to :meth:`extend` from."""
        self.arrival += 1
        new: list[Fact] = []
        for fact in facts:
            known = self.stored.setdefault(fact.relation, {})
            if fact.args in known:
                continue
            known[fact.args] = fact
            self.work.add(fact)
            self.cache.add_fact(fact, self.arrival)
            new.append(fact)
        return new

    def extend(
        self,
        delta: list[Fact],
        groundings: list | None = None,
        max_rounds: int = 1_000_000,
    ) -> tuple[int, list[Fact]]:
        """Strict semi-naive rounds from ``delta``, the latest arrival.

        Each round splits every join into old and new: for pivot position
        *i*, body atoms before *i* match facts that arrived before the
        round's delta and atoms after *i* match every fact present, so each
        binding that uses a delta fact is found exactly once, and no
        binding over older facts is found at all.  Heads are buffered
        until the round ends, so each round's derivations depend only on
        the (work, delta) sets.  When ``groundings`` is a list, each
        non-tautological ``(rule, body_facts, head_fact)`` found is
        appended to it.  Returns the number of rounds and the derived
        facts, in arrival order.
        """
        work, cache, stored = self.work, self.cache, self.stored
        derived: list[Fact] = []
        rounds = 0
        while delta:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(f"batch_chase exceeded {max_rounds} rounds")
            before = self.arrival
            fresh: dict[str, dict[tuple, Fact]] = {}
            for relation, facts in _by_relation(delta).items():
                for plan in self.plans.get(relation, ()):
                    rows = plan.rows(facts, cache, before)
                    if rows:
                        _derive(plan, rows, stored, fresh, groundings)
            self.arrival += 1
            delta = []
            for relation, new in fresh.items():
                stored[relation].update(new)
                for head_fact in new.values():
                    work.add(head_fact)
                    cache.add_fact(head_fact, self.arrival)
                    delta.append(head_fact)
            derived.extend(delta)
        return rounds, derived

    def violations(self, facts: list[Fact], since: int) -> list:
        """The raw violations of every egd binding that uses one of
        ``facts`` — exactly the facts that arrived at ``since`` or later —
        each binding found once (both orientations of a symmetric egd are
        two bindings)."""
        found: list = []
        for relation, seeds in _by_relation(facts).items():
            for plan in self.egd_plans.get(relation, ()):
                plan.collect(plan.rows(seeds, self.cache, since), found)
        return found

    def retract(self, facts: Iterable[Fact]) -> None:
        """Remove ``facts`` from the work instance, the args map and the
        index buckets (keeping bucket order); absent facts are ignored."""
        for fact in facts:
            stored = self.stored[fact.relation].pop(fact.args, None)
            if stored is not None:
                self.cache.remove_fact(stored)
                self.work.discard(stored)


def batch_chase(
    instance: Instance,
    rules: Sequence[TGD],
    max_rounds: int = 1_000_000,
    stats: dict[str, int] | None = None,
    groundings: list[tuple[TGD, tuple[Fact, ...], Fact]] | None = None,
) -> Instance:
    """The least fixpoint of ``rules`` over ``instance`` (a copy).

    Builds a :class:`ChaseState` over the copy and extends it with every
    fact.  Every fact exists as one object — a derived head resolves to
    the stored fact — and when ``groundings`` is a list, each
    non-tautological ``(rule, body_facts, head_fact)`` over the result is
    appended to it exactly once, built from the chased instance's own
    fact objects.

    When ``stats`` is a dict, the deterministic work counters ``rounds``
    (strict semi-naive rounds) and ``derived_facts`` (facts added beyond
    the input) are recorded into it; strict rounds make both a pure
    function of (instance, rules).
    """
    work = instance.copy()
    rounds, _derived = ChaseState(work, rules).extend(
        list(work), groundings, max_rounds
    )
    if stats is not None:
        stats["rounds"] = rounds
        stats["derived_facts"] = len(work) - len(instance)
    return work


def _derive(
    plan: _RulePlan,
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
    """Every grounding ``(rule, body_facts, head_fact)`` over ``instance``.

    One grounding per binding (a binding's body facts determine it, so
    there are no duplicates), tautological groundings (head in own body)
    dropped; each rule body is one planned batch join, and yield order
    within a rule follows the join, so callers canonicalize.  The exchange
    takes its groundings from :func:`batch_chase` instead; this one-shot
    form serves instances that were not chased here, and cross-checks the
    chase's own emission.
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


def join_bodies(
    instance: Instance,
    bodies: Iterable[tuple[Sequence[Atom], Sequence[Variable]]],
) -> Iterator[
    tuple[list[tuple], Callable[[tuple], tuple], Callable[[tuple], tuple]]
]:
    """The full join of each ``(body, outputs)`` over ``instance``.

    Yields ``(rows, values_of, body_of)`` per body: ``values_of(row)`` is
    the tuple of the ``outputs``' values, ``body_of(row)`` the matched
    facts in body order — the instance's own fact objects.  A body with
    an atom of another arity than its relation's facts matches nothing.

    Each step probes a hash index over its relation, from one index cache
    the bodies share and that lives for this call — unless it has a bound
    or constant position and fewer rows than its relation has facts: then
    it probes the instance's own per-position index
    (:func:`_lookup_probe`), so a selective join over a large relation
    does not pay for hashing all of it.
    """
    cache = _IndexCache(instance)
    for body, outputs in bodies:
        plan = _BodyPlan(instance, body)
        values_of = _tuple_projector([plan.layout[v] for v in outputs])
        rows: list[tuple] = [()]
        if not all(_arity_fits(instance, atom) for atom in body):
            rows = []
        for step in plan.steps:
            if not rows:
                break
            selective = len(rows) < len(instance.facts_of(step.relation))
            if selective and (step.key_positions or step.const_checks):
                rows = _lookup_probe(step, instance, rows)
            else:
                rows = _probe(step, cache.index_for(step), rows)
        yield rows, values_of, plan.body_of


def _lookup_probe(
    step: _AtomStep, instance: Instance, rows: list[tuple]
) -> list[tuple]:
    """:func:`_probe` through :meth:`Instance.lookup` on one bound (or
    constant) position; :meth:`_AtomStep.admit` checks the rest."""
    if step.key_positions:
        position = step.key_positions[0]
        value_of = itemgetter(step.key_slots[0])
    else:
        position, value = step.const_checks[0]
        value_of = lambda row: value
    relation, admit, key_of_row = step.relation, step.admit, step.key_of_row
    lookup = instance.lookup
    out: list[tuple] = []
    append = out.append
    for row in rows:
        key = key_of_row(row)
        for fact in lookup(relation, position, value_of(row)):
            entry = admit(fact)
            if entry is not None and entry[0] == key:
                append(row + entry[1])
    return out


def _arity_fits(instance: Instance, atom: Atom) -> bool:
    """Whether ``atom`` has the arity of its relation's facts (all facts
    of a relation share one arity; the index projections rely on it)."""
    for fact in instance.facts_of(atom.relation):
        return len(fact.args) == atom.arity
    return True


def find_violations_batch(
    egds: Sequence[EGD],
    chased: Instance,
    options: BatchOptions = DEFAULT_OPTIONS,
    plan_log: dict[str, str] | None = None,
) -> list:
    """All grounded-egd violations, one planned batch join per egd.

    Returns raw :class:`~repro.xr.exchange.Violation` objects including
    both orientations of symmetric egds; callers dedup through
    :func:`repro.xr.exchange.canonicalize_violations`.
    """
    cache = _IndexCache(chased)
    violations: list = []
    for egd in egds:
        plan = _BodyPlan(chased, egd.body)
        mode, rows = plan.rows(chased, cache, options)
        if plan_log is not None:
            plan_log[egd.label] = mode
        compile_violation_check(egd, plan.layout, plan.body_of)(rows, violations)
    return violations
