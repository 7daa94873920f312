"""Tests of the benchmark's own rules: tail percentile, verdict, tracing."""

import sys

import pytest

import layers
from common import percentile, samples_beyond, tail_percentile
from compare import verdict


# ------------------------------------------------------------ tail rule


@pytest.mark.parametrize(
    "count, expected",
    [
        (10_000, (99.9, True)),
        (9_999, (99.0, True)),
        (1_000, (99.0, True)),
        (999, (95.0, True)),
        (200, (95.0, True)),
        (199, (90.0, True)),
        (100, (90.0, True)),
        (99, (75.0, True)),
        (40, (75.0, True)),
        (39, (75.0, False)),
        (1, (75.0, False)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    pct, meets = expected
    assert (samples_beyond(count, pct) >= 10) == meets


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99.9) == 100
    assert percentile([3.0], 75) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ------------------------------------------------------------ verdicts


def test_improved_needs_nine_tenths_of_pairs_and_a_gap_beyond_parent_spread():
    parent = [100.0 + i for i in range(10)]
    change = [80.0 + i for i in range(10)]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "improved"
    # Eight wins out of ten is not enough to claim a gain.
    change_mixed = change[:8] + [200.0, 200.0]
    assert verdict(parent, change_mixed, "lower", 0.5)["verdict"] != "improved"


def test_gap_within_parent_spread_is_not_a_gain():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0, 90.0, 95.0, 100.0, 105.0, 110.0]
    change = [value - 1.0 for value in parent]
    result = verdict(parent, change, "lower", 0.25)
    assert result["wins"] == 10
    assert result["verdict"] == "no worse"


def test_fewer_than_ten_pairs_cannot_claim_a_gain():
    parent = [100.0, 101.0, 102.0]
    change = [50.0, 51.0, 52.0]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "no worse"


def test_worse_beyond_bound_with_tight_spread():
    parent = [100.0, 100.5, 101.0, 100.2, 100.1]
    change = [120.0, 120.5, 121.0, 120.2, 120.1]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "worse"
    assert verdict(parent, change, "lower", 0.25)["verdict"] == "no worse"


def test_spread_wider_than_bound_is_unresolved_unless_every_run_is_better():
    parent = [50.0, 100.0, 150.0, 200.0, 100.0]
    change = [60.0, 110.0, 160.0, 210.0, 110.0]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "unresolved"
    all_better = [40.0, 41.0, 42.0, 43.0, 44.0]
    assert verdict(parent, all_better, "lower", 0.1)["verdict"] == "no worse"


def test_higher_is_better_direction():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [12.0 + 0.01 * i for i in range(10)]
    slower = [8.0 + 0.01 * i for i in range(10)]
    assert verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert verdict(parent, slower, "higher", 0.1)["verdict"] == "worse"


# ------------------------------------------------------------ tracing


def _originals():
    import repro.asp.stable
    import repro.chase.batch
    import repro.reduction.reduce
    import repro.serve.http
    import repro.xr.exchange
    import repro.xr.program
    import repro.xr.segmentary

    return {
        "batch_chase": repro.chase.batch.batch_chase,
        "build_exchange_data": repro.xr.segmentary.build_exchange_data,
        "build_family_program": repro.xr.segmentary.build_family_program,
        "reduce_mapping": repro.reduction.reduce.reduce_mapping,
        "encode": repro.asp.stable.StableModelEngine.__dict__["__init__"],
        "answer": repro.xr.segmentary.SegmentaryEngine.__dict__["answer_with_stats"],
        "do_POST": repro.serve.http.ServeHandler.__dict__["do_POST"],
    }


def test_traced_run_attributes_all_time_and_removes_its_wrappers():
    from repro.genomics.queries import query_by_name
    from repro.xr.segmentary import SegmentaryEngine
    from workloads import generate_instance, reduced_genome_mapping

    before = _originals()
    recorder = layers.SpanRecorder()
    installation = layers.install(recorder)
    try:
        assert layers.installed_wrappers()
        reduced = reduced_genome_mapping()
        engine = SegmentaryEngine(reduced, generate_instance("S3", 0, False), cache=False)
        engine.exchange()
        for name in ("ep2", "xr2", "xr4"):
            with recorder.operation(name, "query"):
                engine.answer_with_stats(query_by_name(name))
    finally:
        layers.uninstall(installation)

    assert layers.installed_wrappers() == []
    assert _originals() == before
    assert not hasattr(reduced.rewrite, "__xrbench_original__")

    attributed = layers.attribution(recorder.spans, "query")
    assert attributed["operations"] == 3
    assert abs(attributed["sum_error_s"]) < 1e-9
    assert {"repro.xr.segmentary", "repro.xr.queries", "repro.reduction"} <= set(
        attributed["layer_self_s"]
    )
    names = {span.name for span in recorder.spans}
    assert {"chase.chase", "chase.plan", "exchange.index", "envelope.analyze"} <= names
    setup_counts = layers.per_op_count(recorder.spans, layers.SETUP, "chased_facts")
    assert setup_counts == [len(engine.data.chased)]


def test_wrappers_are_removed_when_the_traced_code_raises():
    recorder = layers.SpanRecorder()
    installation = layers.install(recorder)
    try:
        from repro.xr.exchange import build_exchange_data

        with pytest.raises(Exception):
            with recorder.operation("bad", "exchange"):
                build_exchange_data(None, None)
    finally:
        layers.uninstall(installation)
    assert layers.installed_wrappers() == []
    assert "repro.xr.exchange" in sys.modules


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_names_what_the_runner_reports():
    import json
    from pathlib import Path

    import run

    benchmark = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    reported = {name: unit for name, (unit, _, _) in run.SPAN_METRICS.items()}
    reported.update(run.OTHER_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == reported
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
