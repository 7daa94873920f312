"""Record the expected outputs the benchmark checks every operation against.

Run from the checkout root: ``python3 xrbench/record.py``.  It writes
``xrbench/expected.json``; the committed file was recorded at the commit
that introduced the benchmark, and a later change that alters any answer
or exchange count makes every affected run fail its correctness check.
"""

from __future__ import annotations

import json
import sys

from common import EXPECTED_PATH, digest_rows, use_program
from workloads import exchange_summary, reduced_genome_mapping, setup


def record() -> dict:
    from repro.bench.micro import parse_scenario_name
    from repro.genomics.instances import build_instance
    from repro.genomics.queries import query_by_name
    from repro.serve.protocol import serialize_rows
    from repro.xr.segmentary import SegmentaryEngine
    from serving import READ_QUERIES, SCENARIO

    expected: dict = {}
    _reduced, _instance, engine = setup("exchange-L20", 0, False)
    expected["exchange-L20"] = exchange_summary(engine.data, engine.analysis)

    served = SegmentaryEngine(
        reduced_genome_mapping(), build_instance(parse_scenario_name(SCENARIO)).instance
    )
    served.exchange()
    expected["serve"] = {
        "scenario": SCENARIO,
        "answers": {
            name: digest_rows(serialize_rows(served.answer(query_by_name(name))))
            for name in READ_QUERIES
        },
        "suspects": sorted(repr(fact) for fact in served.analysis.suspect_source),
    }
    return expected


def main() -> int:
    use_program()
    expected = record()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
