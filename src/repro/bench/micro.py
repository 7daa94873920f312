"""Micro-benchmarks for the deterministic hot paths.

Three measured stages, per genomics scenario (size × suspect rate):

- **exchange build** — the query-independent exchange phase, split into
  chase / grounding enumeration / violation detection / index construction
  (:func:`~repro.xr.exchange.build_exchange_data` stage timings) plus the
  envelope analysis (:func:`~repro.xr.envelope.analyze_envelopes`);
- **program build** — per-signature program construction in the query
  phase (``QueryPhaseStats.build_seconds`` over a fixed query subset,
  caches disabled so construction is actually exercised);
- **solve** — stable-model solving of the built programs
  (``QueryPhaseStats.solve_seconds``), measured under **both** solve
  strategies: the default incremental family path and the legacy
  per-signature reference path, with the per-strategy medians and their
  ratio emitted as the ``solve_strategy_s`` series (the PR 8 solve-phase
  trajectory; ``repro bench --ab solve`` is the focused harness);
- **incremental** — one single-tuple delta (retract + re-insert of a
  suspect source fact, the cluster-touching worst case) applied through
  :class:`~repro.incremental.UpdateSession`, against the full re-exchange
  baseline; the reported ``speedup`` is the PR 7 acceptance number.

Scenario names are either genomics grid cells (``"M9"``) or TPC-H grid
cells (``"tpch-sf0.01-r0.2"``, see :mod:`repro.scenarios.tpch`).  TPC-H
rows carry the exchange stage only — the genomics query/solve/incremental
stages are tied to the genomics query set.  Every row embeds a ``meta``
object (scenario family and the stage labels actually observed in that
run) so artifacts stay self-describing as stages evolve.

The paper's practicality claim (§5–§6) rests on the first two stages
being PTIME-cheap so the NP-hard solving dominates; these benchmarks
watch exactly that split.  Scenarios are the S/M/L genomics sizes crossed
with the paper's 0/3/9/20 % suspect rates.  Each stage reports the
*median* over ``repeats`` fresh runs (medians are robust to one-off
scheduler noise; the paper reports medians too).

``python -m repro bench --micro`` runs this and can emit a JSON artifact
via :func:`repro.bench.reporting.write_benchmark_json`; the committed
``BENCH_PR3.json`` pairs one pre-optimization artifact with one
post-optimization artifact (see ``benchmarks/README.md``).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.bench.reporting import format_table
from repro.genomics.instances import InstanceProfile, build_instance
from repro.genomics.queries import query_by_name
from repro.genomics.schema import genome_mapping
from repro.obs.recorder import Recorder
from repro.reduction.reduce import ReducedMapping, reduce_mapping
from repro.scenarios.tpch import parse_tpch_name, tpch_scenario
from repro.xr.envelope import analyze_envelopes
from repro.xr.exchange import build_exchange_data
from repro.xr.segmentary import SegmentaryEngine

#: Transcript counts of the micro-benchmark size steps (matching the
#: S3/M3/L3 profiles of :mod:`repro.genomics.instances`).
MICRO_SIZES: dict[str, int] = {"S": 18, "M": 40, "L": 100}

#: Suspect rates of the paper's Figure 3/4 sweep.
MICRO_RATES: tuple[float, ...] = (0.0, 0.03, 0.09, 0.20)

#: Query subset exercised by the query-phase stages: a source-source join
#: (ep2), a projection over the biggest target relation (xr2), and a
#: self-join (xr4).  Small enough to keep the benchmark runnable at L,
#: varied enough to build programs of every signature shape.
MICRO_QUERIES: tuple[str, ...] = ("ep2", "xr2", "xr4")

#: TPC-H cells appended to the default grid: two SF 0.01 cells (clean and
#: 20 % injected) plus one larger cell, away from fixed-cost territory.
MICRO_TPCH_CELLS: tuple[str, ...] = (
    "tpch-sf0.01-r0",
    "tpch-sf0.01-r0.2",
    "tpch-sf0.03-r0.2",
)


def micro_scenario_names(
    sizes: dict[str, int] | None = None,
    rates: tuple[float, ...] | None = None,
    tpch_cells: tuple[str, ...] | None = None,
) -> list[str]:
    """The default scenario grid: genomics cells then TPC-H cells, e.g.
    ``["S0", "S3", ..., "L20", "tpch-sf0.01-r0", ...]``."""
    sizes = MICRO_SIZES if sizes is None else sizes
    rates = MICRO_RATES if rates is None else rates
    tpch_cells = MICRO_TPCH_CELLS if tpch_cells is None else tpch_cells
    return [
        f"{size}{int(round(rate * 100))}" for size in sizes for rate in rates
    ] + list(tpch_cells)


def parse_scenario_name(name: str) -> InstanceProfile:
    """Turn ``"M9"`` into the matching :class:`InstanceProfile`."""
    size = name[0].upper()
    if size not in MICRO_SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {sorted(MICRO_SIZES)}")
    try:
        rate = int(name[1:]) / 100.0
    except ValueError:
        raise ValueError(f"bad scenario name {name!r}; expected e.g. 'M9'") from None
    return InstanceProfile(name, MICRO_SIZES[size], rate)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _stage_labels(runs: list[dict[str, float]]) -> list[str]:
    """The stage labels a set of timing runs actually produced, in
    first-seen order.  Derived per run rather than hardcoded so payloads
    stay honest when the exchange pipeline grows or drops a stage."""
    labels: list[str] = []
    for run in runs:
        for key in run:
            if key not in labels:
                labels.append(key)
    return labels


def _measure_exchange(
    gav,
    instance,
    repeats: int,
    obs: Recorder | None,
) -> tuple[list[dict[str, float]], object, object]:
    """The shared exchange-stage measurement loop (genomics and TPC-H)."""
    exchange_runs: list[dict[str, float]] = []
    data = None
    analysis = None
    for _ in range(max(1, repeats)):
        timings: dict[str, float] = {}
        started = time.perf_counter()
        data = build_exchange_data(gav, instance, timings=timings, obs=obs)
        built_at = time.perf_counter()
        analysis = analyze_envelopes(data)
        done = time.perf_counter()
        timings["envelope"] = done - built_at
        timings["total"] = done - started
        timings["build_total"] = built_at - started
        exchange_runs.append(timings)
    assert data is not None and analysis is not None
    return exchange_runs, data, analysis


def run_micro_scenario(
    name: str,
    reduced: ReducedMapping | None = None,
    repeats: int = 3,
    queries: tuple[str, ...] = MICRO_QUERIES,
    obs: Recorder | None = None,
) -> dict:
    """Measure one genomics scenario; returns the per-stage median payload.

    With a live ``obs`` recorder the run is *traced* — per-phase spans and
    work counters are recorded alongside the timings, at the cost of
    instrumentation overhead.  Traced numbers are for drill-down, not for
    timing baselines (EXPERIMENTS.md).
    """
    profile = parse_scenario_name(name)
    if reduced is None:
        reduced = reduce_mapping(genome_mapping())
    instance = build_instance(profile).instance

    exchange_runs, data, analysis = _measure_exchange(
        reduced.gav, instance, repeats, obs
    )
    counts = {
        "source_facts": len(instance),
        "chased_facts": len(data.chased),
        "groundings": len(data.groundings),
        "violations": len(data.violations),
        "clusters": len(analysis.clusters),
        "suspect_source_facts": len(analysis.suspect_source),
    }

    query_runs: list[dict[str, float]] = []
    answers: dict[str, int] = {}
    programs_solved = 0
    for _ in range(max(1, repeats)):
        # A fresh engine per repeat, seeded with the measured exchange
        # artifacts (caches off: program build and solving must actually
        # run — a warm cache would measure dictionary lookups instead).
        engine = SegmentaryEngine(reduced, instance, cache=False, obs=obs)
        engine.data = data
        engine.analysis = analysis
        run = {"program_build": 0.0, "solve": 0.0, "query_total": 0.0}
        programs_solved = 0
        for query_name in queries:
            result, stats = engine.answer_with_stats(query_by_name(query_name))
            answers[query_name] = len(result)
            run["program_build"] += stats.build_seconds
            run["solve"] += stats.solve_seconds
            run["query_total"] += stats.seconds
            programs_solved += stats.programs_solved
        engine.close()
        query_runs.append(run)

    # Solve-strategy series (PR 8): re-run the query phase under the
    # legacy per-signature strategy so every BENCH_*.json artifact carries
    # the per-strategy solve comparison.  The loop above measured the
    # default (incremental) strategy; answers must agree exactly.
    legacy_solve_runs: list[float] = []
    for _ in range(max(1, repeats)):
        engine = SegmentaryEngine(
            reduced, instance, cache=False, obs=obs,
            solve_strategy="per-signature",
        )
        engine.data = data
        engine.analysis = analysis
        legacy_solve = 0.0
        for query_name in queries:
            result, stats = engine.answer_with_stats(query_by_name(query_name))
            assert len(result) == answers[query_name], (
                f"solve-strategy answer mismatch on {name}/{query_name}"
            )
            legacy_solve += stats.solve_seconds
        engine.close()
        legacy_solve_runs.append(legacy_solve)

    # Stage labels come from the timing dicts themselves (a hardcoded
    # label tuple silently zeroed any stage the exchange pipeline renamed
    # or added after it was written).
    stages = _stage_labels(exchange_runs)
    exchange_medians = {
        key: _median([run.get(key, 0.0) for run in exchange_runs])
        for key in stages
    }
    query_medians = {
        key: _median([run[key] for run in query_runs])
        for key in ("program_build", "solve", "query_total")
    }
    incremental_solve = query_medians["solve"]
    per_signature_solve = _median(legacy_solve_runs)
    solve_strategies = {
        "incremental": round(incremental_solve, 6),
        "per_signature": round(per_signature_solve, 6),
        "speedup": (
            round(per_signature_solve / incremental_solve, 2)
            if incremental_solve > 0
            else float("inf")
        ),
    }

    # Incremental stage: a fresh engine + update session per repeat (the
    # session mutates the exchange state in place, so the measured
    # artifacts above are not reused), timing a single-tuple retract and
    # its re-insert.  A suspect fact is the worst case — it touches a
    # cluster and forces envelope recomputation and cache invalidation.
    from repro.incremental import Delta

    delta_runs: list[float] = []
    for _ in range(max(1, repeats)):
        engine = SegmentaryEngine(reduced, instance.copy(), cache=False, obs=obs)
        session = engine.update_session()
        suspects = sorted(engine.analysis.suspect_source, key=repr)
        target = suspects[0] if suspects else sorted(instance, key=repr)[0]
        started = time.perf_counter()
        session.apply(Delta(retracts=frozenset({target})))
        session.apply(Delta(inserts=frozenset({target})))
        delta_runs.append((time.perf_counter() - started) / 2)
        engine.close()
    single_delta = _median(delta_runs)
    incremental = {
        "single_delta": single_delta,
        "full_exchange": exchange_medians["total"],
        "speedup": (
            round(exchange_medians["total"] / single_delta, 2)
            if single_delta > 0
            else float("inf")
        ),
    }

    return {
        "profile": {
            "name": name,
            "transcripts": profile.transcripts,
            "suspect_rate": profile.suspect_fraction,
        },
        "meta": {"scenario_family": "genomics", "stages": stages},
        "counts": counts,
        "exchange_s": exchange_medians,
        "query_s": query_medians,
        "solve_strategy_s": solve_strategies,
        "incremental_s": incremental,
        "programs_solved": programs_solved,
        "answers": answers,
    }


def run_tpch_micro_scenario(
    name: str,
    repeats: int = 3,
    obs: Recorder | None = None,
) -> dict:
    """Measure one TPC-H grid cell (``"tpch-sf0.01-r0.2"``).

    TPC-H rows carry the exchange stage; the query/solve/incremental
    stages are genomics-specific and absent here (consumers must treat them as
    optional — :func:`format_micro_table` and :func:`compare_payloads`
    do).
    """
    scale, ratio = parse_tpch_name(name)
    scenario = tpch_scenario(scale, ratio, seed=0)
    reduced = reduce_mapping(scenario.mapping)
    instance = scenario.instance

    exchange_runs, data, analysis = _measure_exchange(
        reduced.gav, instance, repeats, obs
    )
    stages = _stage_labels(exchange_runs)
    exchange_medians = {
        key: _median([run.get(key, 0.0) for run in exchange_runs])
        for key in stages
    }
    return {
        "profile": {
            "name": name,
            "scale": scale,
            "ratio": ratio,
            "seed": scenario.seed,
        },
        "meta": {"scenario_family": "tpch", "stages": stages},
        "counts": {
            "source_facts": len(instance),
            "injected_facts": len(scenario.injected),
            "chased_facts": len(data.chased),
            "groundings": len(data.groundings),
            "violations": len(data.violations),
            "clusters": len(analysis.clusters),
            "suspect_source_facts": len(analysis.suspect_source),
        },
        "exchange_s": exchange_medians,
    }


def run_micro(
    scenarios: list[str] | None = None,
    repeats: int = 3,
    queries: tuple[str, ...] = MICRO_QUERIES,
    log: Callable[[str], None] | None = None,
    obs: Recorder | None = None,
) -> dict:
    """Run the micro-benchmark grid and return the artifact payload."""
    if scenarios is None:
        scenarios = micro_scenario_names()
    reduced = reduce_mapping(genome_mapping())
    results: dict[str, dict] = {}
    for name in scenarios:
        started = time.perf_counter()
        if name.startswith("tpch-"):
            results[name] = run_tpch_micro_scenario(
                name, repeats=repeats, obs=obs
            )
        else:
            results[name] = run_micro_scenario(
                name, reduced=reduced, repeats=repeats, queries=queries,
                obs=obs,
            )
        if log is not None:
            row = results[name]
            parts = [f"exchange {row['exchange_s']['total']:.3f}s"]
            query_s = row.get("query_s")
            if query_s is not None:
                parts.append(f"program-build {query_s['program_build']:.3f}s")
                parts.append(f"solve {query_s['solve']:.3f}s")
            log(
                f"{name:>4}: " + "  ".join(parts)
                + f"  ({time.perf_counter() - started:.1f}s wall)"
            )
    return {
        "kind": "repro-micro-benchmark",
        "repeats": repeats,
        "queries": list(queries),
        "scenarios": results,
    }


def format_micro_table(payload: dict) -> str:
    """Render a micro-benchmark payload as an aligned table."""
    rows = []
    for name, row in payload["scenarios"].items():
        incremental = row.get("incremental_s")  # absent in pre-PR7 payloads
        strategies = row.get("solve_strategy_s")  # absent in pre-PR8 payloads
        query_s = row.get("query_s")  # absent on TPC-H rows
        rows.append(
            [
                name,
                row["counts"]["source_facts"],
                row["counts"]["groundings"],
                row["counts"]["suspect_source_facts"],
                f"{row['exchange_s']['total']:.3f}",
                f"{query_s['program_build']:.3f}" if query_s else "-",
                f"{query_s['solve']:.3f}" if query_s else "-",
                f"{strategies['speedup']:.1f}x" if strategies else "-",
                f"{incremental['single_delta']:.4f}" if incremental else "-",
                f"{incremental['speedup']:.1f}x" if incremental else "-",
            ]
        )
    return format_table(
        ["scenario", "facts", "groundings", "suspects",
         "exchange[s]", "build[s]", "solve[s]", "strategy",
         "1-delta[s]", "incr"],
        rows,
        title=f"micro-benchmark medians over {payload['repeats']} repeat(s)",
    )


def compare_payloads(before: dict, after: dict) -> dict:
    """Per-scenario speedups (before/after, >1 = faster) for the stages
    the acceptance criteria track."""
    speedups: dict[str, dict[str, float]] = {}
    for name, after_row in after["scenarios"].items():
        before_row = before["scenarios"].get(name)
        if before_row is None:
            continue
        entry: dict[str, float] = {}
        pairs = [
            ("exchange", before_row["exchange_s"]["total"],
             after_row["exchange_s"]["total"]),
        ]
        before_query = before_row.get("query_s")
        after_query = after_row.get("query_s")
        if before_query is not None and after_query is not None:
            pairs.extend([
                ("program_build", before_query["program_build"],
                 after_query["program_build"]),
                ("solve", before_query["solve"], after_query["solve"]),
                (
                    "exchange_plus_build",
                    before_row["exchange_s"]["total"]
                    + before_query["program_build"],
                    after_row["exchange_s"]["total"]
                    + after_query["program_build"],
                ),
            ])
        for stage, before_s, after_s in pairs:
            entry[stage] = round(before_s / after_s, 3) if after_s > 0 else float("inf")
        speedups[name] = entry
    return speedups
