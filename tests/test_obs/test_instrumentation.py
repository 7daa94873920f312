"""Engine-level instrumentation: spans, counters, and worker round-trips.

The contract under test: a live recorder changes *nothing* about the
answers while producing a span tree that satisfies the nesting invariants
and counters that agree with the engines' own stats objects.
"""

import pytest

from repro.obs.export import trace_document, validate_trace_document
from repro.obs.recorder import Recorder
from repro.obs.tracing import NOOP_TRACER, validate_span_tree
from repro.parser import parse_mapping, parse_program
from repro.relational.instance import Fact, Instance
from repro.xr.monolithic import MonolithicEngine
from repro.xr.segmentary import SegmentaryEngine


def f(relation, *args):
    return Fact(relation, args)


MAPPING = parse_mapping(
    """
    SOURCE R/2. TARGET P/2.
    R(x, y) -> P(x, y).
    P(x, y), P(x, z) -> y = z.
    """
)

#: Two independent key conflicts (on 'a' and on 'd'): two violation
#: clusters, hence two signature programs for a query over P.
INSTANCE = Instance(
    [f("R", "a", "b"), f("R", "a", "c"), f("R", "d", "e"), f("R", "d", "g")]
)

QUERY = parse_program("q(x) :- P(x, y).")


def span_names(roots):
    return [span.name for span in roots]


class TestSegmentary:
    def test_spans_cover_both_phases(self):
        obs = Recorder.create()
        with SegmentaryEngine(MAPPING, INSTANCE, obs=obs) as engine:
            engine.answer(QUERY)
        roots = obs.tracer.finished
        assert span_names(roots) == ["exchange", "query"]
        exchange, query = roots
        # The default batch chase emits the groundings itself: no
        # separate grounding stage.
        assert span_names(exchange.children) == [
            "exchange.chase", "exchange.violations",
            "exchange.index", "exchange.envelope",
        ]
        assert span_names(query.children) == [
            "query.ground", "query.build", "query.solve",
        ]
        assert query.tags["mode"] == "certain"
        for root in roots:
            assert validate_span_tree(root) == []

    def test_solve_tasks_ride_home_as_remote_spans(self):
        obs = Recorder.create()
        with SegmentaryEngine(MAPPING, INSTANCE, cache=False, obs=obs) as engine:
            _, stats = engine.answer_with_stats(QUERY)
        assert stats.programs_solved == 2
        query = obs.tracer.finished[1]
        solve = query.children[-1]
        tasks = [c for c in solve.children if c.name == "solve.task"]
        assert len(tasks) == stats.programs_solved
        for task in tasks:
            assert task.is_remote
            assert task.tags["status"] == "ok"
            assert task.tags["mode"] == "certain"
            assert task.counters["conflicts"] >= 0
            assert task.counters["stable_models_found"] >= 1

    def test_counters_agree_with_stats(self):
        obs = Recorder.create()
        with SegmentaryEngine(MAPPING, INSTANCE, cache=False, obs=obs) as engine:
            exchange_stats = engine.exchange()
            _, stats = engine.answer_with_stats(QUERY)
        counters = obs.metrics.counter_values()
        assert counters["exchange_source_facts_total"] == exchange_stats.source_facts
        assert counters["exchange_chased_facts_total"] == exchange_stats.chased_facts
        assert counters["exchange_groundings_total"] == exchange_stats.groundings
        assert counters["exchange_violations_total"] == exchange_stats.violations
        assert counters["exchange_clusters_total"] == exchange_stats.clusters
        assert counters["exchange_chase_rounds_total"] >= 1
        assert counters["queries_total"] == 1
        assert counters["query_candidates_total"] == stats.candidates
        assert counters["query_signatures_total"] == stats.signatures
        assert counters["query_programs_solved_total"] == stats.programs_solved
        assert counters["query_ground_rules_total"] == stats.total_rules
        assert counters["cache_program_misses_total"] == stats.cache_misses
        assert (
            counters["solver_conflicts_total"]
            == stats.solver_stats["conflicts"]
        )
        assert counters["executor_tasks_total"] == stats.programs_solved
        assert counters["executor_batches_total"] == 1
        histogram = obs.metrics.histogram("solve_seconds")
        assert histogram.count == stats.programs_solved
        gauge = obs.metrics.gauge("query_largest_program_atoms")
        assert gauge.value == stats.largest_program_atoms

    def test_answers_identical_traced_and_untraced(self):
        with SegmentaryEngine(MAPPING, INSTANCE) as plain:
            certain = plain.answer(QUERY)
            possible = plain.possible_answers(QUERY)
        obs = Recorder.create()
        with SegmentaryEngine(MAPPING, INSTANCE, obs=obs) as traced:
            assert traced.answer(QUERY) == certain
            assert traced.possible_answers(QUERY) == possible
        assert validate_trace_document(trace_document(obs)) == []

    def test_parallel_worker_spans_cross_the_pool(self):
        obs = Recorder.create()
        with SegmentaryEngine(
            MAPPING, INSTANCE, jobs=2, cache=False, obs=obs
        ) as engine:
            answers, stats = engine.answer_with_stats(QUERY)
        with SegmentaryEngine(MAPPING, INSTANCE) as plain:
            assert answers == plain.answer(QUERY)
        assert stats.programs_solved == 2
        query = obs.tracer.finished[1]
        tasks = [
            c for c in query.children[-1].children if c.name == "solve.task"
        ]
        assert len(tasks) == 2
        assert all(task.is_remote for task in tasks)
        # Each worker's span carries its solver statistics as counters.
        assert all("decisions" in task.counters for task in tasks)

    def test_default_engine_stays_uninstrumented(self):
        with SegmentaryEngine(MAPPING, INSTANCE) as engine:
            engine.answer(QUERY)
            assert engine.obs.tracer is NOOP_TRACER
        assert NOOP_TRACER.finished == []


class TestMonolithic:
    def test_spans_and_counters(self):
        obs = Recorder.create()
        engine = MonolithicEngine(MAPPING, INSTANCE, obs=obs)
        engine.answer(QUERY)
        roots = obs.tracer.finished
        assert span_names(roots) == ["monolithic"]
        assert span_names(roots[0].children)[:1] == ["monolithic.build"]
        assert span_names(roots[0].children)[-1] == "monolithic.solve"
        assert validate_span_tree(roots[0]) == []
        counters = obs.metrics.counter_values()
        assert counters["monolithic_programs_total"] == 1
        assert counters["monolithic_atoms_total"] == engine.last_stats.atoms
        assert counters["monolithic_rules_total"] == engine.last_stats.rules
        assert (
            counters["monolithic_candidates_total"]
            == engine.last_stats.candidates
        )

    def test_last_stats_copies_do_not_alias(self):
        engine = MonolithicEngine(MAPPING, INSTANCE)
        engine.answer(QUERY)
        published = engine.last_stats
        published.candidates = -1
        published.unknown_candidates.add(("poisoned",))
        fresh = engine.last_stats
        assert fresh.candidates >= 0
        assert fresh.unknown_candidates == set()

    def test_answers_identical_traced_and_untraced(self):
        plain = MonolithicEngine(MAPPING, INSTANCE)
        traced = MonolithicEngine(MAPPING, INSTANCE, obs=Recorder.create())
        assert traced.answer(QUERY) == plain.answer(QUERY)
        assert traced.possible_answers(QUERY) == plain.possible_answers(QUERY)


class TestQueryStatsAliasing:
    def test_returned_stats_and_engine_snapshot_are_independent(self):
        with SegmentaryEngine(MAPPING, INSTANCE, cache=False) as engine:
            _, stats = engine.answer_with_stats(QUERY)
            stats.solver_stats["conflicts"] = -999
            stats.program_seconds.append(123.0)
            stats.unknown_candidates.add(("poisoned",))
            fresh = engine.last_query_stats
            assert fresh.solver_stats.get("conflicts", 0) >= 0
            assert 123.0 not in fresh.program_seconds
            assert fresh.unknown_candidates == set()
            # And the accessor itself hands out isolated copies each time.
            assert engine.last_query_stats is not engine.last_query_stats
