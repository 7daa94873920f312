"""Tests for the benchmark harness and reporting helpers."""

from repro.bench.reporting import format_series, format_table
from repro.bench.runner import BenchmarkContext, run_query_suite


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["alpha", 1], ["b", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("ep1", [(0, 1.0), (3, 2.5)])
        assert text == "ep1: 0=1.000s  3=2.500s"


class TestBenchmarkContext:
    def test_instances_cached(self):
        context = BenchmarkContext()
        assert context.instance("S3") is context.instance("S3")

    def test_reduced_mapping_cached(self):
        context = BenchmarkContext()
        assert context.reduced_mapping() is context.reduced_mapping()

    def test_segmentary_engine_warm(self):
        context = BenchmarkContext()
        engine = context.segmentary_engine("S3")
        assert engine.analysis is not None  # exchange already run
        assert context.segmentary_engine("S3") is engine

    def test_run_query_suite(self):
        context = BenchmarkContext()
        engine = context.segmentary_engine("S3")
        results = run_query_suite(engine, ["xr1", "xr2"])
        assert [r.query for r in results] == ["xr1", "xr2"]
        assert all(r.seconds >= 0 for r in results)
        assert results[0].answers == 1  # boolean query true


class TestMicroPayloadMetadata:
    """Every benchmark row is self-describing — scenario family and the
    stage labels observed in that run."""

    @classmethod
    def setup_class(cls):
        from repro.bench.micro import run_micro

        cls.payload = run_micro(
            scenarios=["S0", "tpch-sf0.01-r0"], repeats=1
        )

    def test_every_row_has_meta(self):
        for name, row in self.payload["scenarios"].items():
            meta = row["meta"]
            assert set(meta) == {"scenario_family", "stages"}, name
            assert meta["scenario_family"] in ("genomics", "tpch"), name
            # Stage labels are derived from the run, not hardcoded, and
            # must match the medians actually reported.
            assert set(meta["stages"]) == set(row["exchange_s"]), name
            assert {"chase", "groundings", "violations", "total"} <= set(
                meta["stages"]
            ), name

    def test_families_assigned_correctly(self):
        scenarios = self.payload["scenarios"]
        assert scenarios["S0"]["meta"]["scenario_family"] == "genomics"
        assert scenarios["tpch-sf0.01-r0"]["meta"]["scenario_family"] == "tpch"

    def test_tpch_rows_skip_query_stages(self):
        row = self.payload["scenarios"]["tpch-sf0.01-r0"]
        assert "query_s" not in row
        assert "solve_strategy_s" not in row
        assert "incremental_s" not in row
        assert row["counts"]["injected_facts"] == 0  # ratio 0 cell

    def test_table_and_compare_handle_mixed_families(self):
        from repro.bench.micro import compare_payloads, format_micro_table

        table = format_micro_table(self.payload)
        assert "tpch-sf0.01-r0" in table
        speedups = compare_payloads(self.payload, self.payload)
        assert speedups["S0"]["exchange"] == 1.0
        assert speedups["tpch-sf0.01-r0"] == {"exchange": 1.0}
