"""Benchmark harness: instance caching, timing, and paper-style reporting."""

from repro.bench.runner import (
    BenchmarkContext,
    QueryResult,
    run_query_suite,
)
from repro.bench.ab import (
    AB_QUERIES,
    AB_SCENARIOS,
    format_ab_table,
    run_solve_ab,
)
from repro.bench.micro import (
    MICRO_QUERIES,
    MICRO_RATES,
    MICRO_SIZES,
    MICRO_TPCH_CELLS,
    compare_payloads,
    format_micro_table,
    micro_scenario_names,
    run_micro,
    run_micro_scenario,
    run_tpch_micro_scenario,
)
from repro.bench.reporting import (
    format_series,
    format_table,
    machine_info,
    read_benchmark_json,
    write_benchmark_json,
)

__all__ = [
    "BenchmarkContext",
    "QueryResult",
    "run_query_suite",
    "AB_QUERIES",
    "AB_SCENARIOS",
    "format_ab_table",
    "run_solve_ab",
    "MICRO_QUERIES",
    "MICRO_RATES",
    "MICRO_SIZES",
    "MICRO_TPCH_CELLS",
    "compare_payloads",
    "format_micro_table",
    "micro_scenario_names",
    "run_micro",
    "run_micro_scenario",
    "run_tpch_micro_scenario",
    "format_series",
    "format_table",
    "machine_info",
    "read_benchmark_json",
    "write_benchmark_json",
]
