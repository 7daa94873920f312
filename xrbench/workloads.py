"""The in-process workload: ``exchange-L20``.

Inputs are the genomics grid cell the program's own ``--scenario``
option builds, with the source facts inserted in an order drawn from the
workload seed.  The answers do not depend on that order (the exchange
canonicalises it), so one recorded set of expected outputs checks every
seed, and each seed also re-checks that independence.

Run as a script (``workloads.py --setup WORKLOAD --seed N``) this module
performs one workload set-up in a fresh interpreter and prints
``ready``; the runner times that from spawn, the same way it times a
server from spawn to its first healthy response.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from common import digest_lines, use_program, workload_rng

#: Genomics grid cell each in-process workload runs on.
SCENARIOS = {"exchange-L20": "L20"}


@dataclass
class OpLog:
    """What a workload loop measured and checked."""

    latencies: list[float] = field(default_factory=list)
    busy_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def mismatch(self, text: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(text)


def generate_instance(scenario: str, seed: int, holdout: bool):
    """The scenario's source facts, inserted in a seed-drawn order."""
    from repro.bench.micro import parse_scenario_name
    from repro.genomics.instances import build_instance
    from repro.relational.instance import Instance

    facts = sorted(build_instance(parse_scenario_name(scenario)).instance, key=repr)
    workload_rng(seed, holdout, "fact-order").shuffle(facts)
    return Instance(facts)


def reduced_genome_mapping():
    from repro.genomics.schema import genome_mapping
    from repro.reduction.reduce import reduce_mapping

    return reduce_mapping(genome_mapping())


def setup(workload: str, seed: int, holdout: bool):
    """Inputs generated, mapping reduced, first exchange done.

    Returns ``(reduced, instance, engine)``; the engine holds the exchange.
    """
    from repro.xr.segmentary import SegmentaryEngine

    instance = generate_instance(SCENARIOS[workload], seed, holdout)
    reduced = reduced_genome_mapping()
    engine = SegmentaryEngine(reduced, instance, cache=False, jobs=1)
    engine.exchange()
    return reduced, instance, engine


def _operation(recorder, op: str, kind: str):
    """The operation's root span in a traced run; nothing otherwise."""
    return nullcontext() if recorder is None else recorder.operation(op, kind)


# ------------------------------------------------------------ exchange


def exchange_summary(data, analysis) -> dict:
    """The exchange outputs the benchmark checks: counts and a digest of
    the canonical fact-id order."""
    return {
        "chased_facts": len(data.chased),
        "groundings": len(data.groundings),
        "violations": len(data.violations),
        "clusters": len(analysis.clusters),
        "fact_order_digest": digest_lines(repr(fact) for fact in data.facts_by_id),
    }


def check_exchange(data, analysis, expected: dict) -> list[str]:
    found = exchange_summary(data, analysis)
    return [
        f"exchange {key}: expected {expected[key]!r}, got {value!r}"
        for key, value in found.items()
        if expected[key] != value
    ]


def run_exchanges(reduced, instance, seconds: float, expected: dict, recorder=None) -> OpLog:
    """Fresh exchanges plus envelope analysis, back to back.

    Each exchange starts from a collected heap: the previous exchange's
    data is dropped and ``gc.collect`` runs outside the timed region, so
    one exchange's garbage does not land in the next one's time.
    """
    from repro.xr.envelope import analyze_envelopes
    from repro.xr.exchange import build_exchange_data

    log = OpLog()
    clock = time.perf_counter
    while log.attempted == 0 or log.busy_seconds < seconds:
        gc.collect()
        log.attempted += 1
        started = clock()
        try:
            with _operation(recorder, f"exchange-{log.attempted}", "exchange"):
                data = build_exchange_data(reduced.gav, instance)
                analysis = analyze_envelopes(data)
        except Exception as exc:  # noqa: BLE001 — counted, then reported
            log.mismatch(f"exchange raised {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - started
        log.latencies.append(elapsed)
        log.busy_seconds += elapsed
        for problem in check_exchange(data, analysis, expected):
            log.mismatch(problem)
        del data, analysis
    return log


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--holdout", action="store_true")
    arguments = parser.parse_args()
    use_program()
    _reduced, _instance, engine = setup(arguments.setup, arguments.seed, arguments.holdout)
    stats = engine.exchange_stats
    print("ready", json.dumps({"chased_facts": stats.chased_facts}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
