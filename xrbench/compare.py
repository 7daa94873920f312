"""Compare two result sets: ``compare.py PARENT.jsonl CHANGE.jsonl``.

Each file holds full results as ``run.py --out`` appends them.  Run the
parent and the change in alternating order, at least ten runs each on
the same seeds.  For every (end-to-end metric, workload) the verdict is:

- ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither side), at least ten pairs were run, and the medians
  differ, in the change's favour, by more than the parent's own spread
  (the distance between its quartiles);
- ``unresolved``: either side's spread, as a share of its median, is
  wider than the metric's bound, and not every change run beats every
  parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``no worse``: otherwise.

Bounds and directions come from ``BENCHMARK.json``.  The exit status is
1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import BENCH_DIR

#: Pairs needed before a gain can be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdict for one metric; ``parent[i]`` and ``change[i]`` are
    the i-th pair of runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")

    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    parent_iqr = quartile_spread(parent)
    spreads = [
        quartile_spread(values) / abs(statistics.median(values))
        if statistics.median(values) else float("inf")
        for values in (parent, change)
    ]
    worse_by = (change_median - parent_median) / abs(parent_median) if parent_median else 0.0
    if better == "higher":
        worse_by = -worse_by
    all_better = all(beats(c, p) for c in change for p in parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and beats(change_median, parent_median)
        and abs(change_median - parent_median) > parent_iqr
    ):
        outcome = "improved"
    elif max(spreads) > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "no worse"
    return {
        "verdict": outcome,
        "pairs": len(pairs),
        "wins": wins,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": parent_iqr,
        "parent_spread": spreads[0],
        "change_spread": spreads[1],
        "worse_by": worse_by,
        "bound": bound,
    }


def load_results(path: str) -> dict[str, list[dict]]:
    """Untraced full results per workload, in file order."""
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            result = json.loads(line)
            if result.get("xrbench") and not result.get("trace"):
                by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs on the same seed when both sides ran the same seeds,
    otherwise in file order."""
    seeds = [run["provenance"]["seed"] for run in parent]
    change_by_seed = {run["provenance"]["seed"]: run for run in change}
    if len(set(seeds)) == len(seeds) == len(change_by_seed) and set(seeds) == set(change_by_seed):
        return [(run, change_by_seed[run["provenance"]["seed"]]) for run in parent]
    return list(zip(parent, change))


def compare(parent_path: str, change_path: str, benchmark: dict) -> list[dict]:
    parent, change = load_results(parent_path), load_results(change_path)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        pairs = pair_up(parent[workload], change[workload])
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs],
                metric["better"], metric["bound"],
            )
            rows.append({"workload": workload, "metric": name, **row})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark_path = Path("BENCHMARK.json")
    if not benchmark_path.is_file():
        benchmark_path = BENCH_DIR.parent / "BENCHMARK.json"
    benchmark = json.loads(benchmark_path.read_text(encoding="utf-8"))
    rows = compare(argv[0], argv[1], benchmark)
    for row in rows:
        print(
            f"{row['workload']:16s} {row['metric']:12s} {row['verdict']:10s} "
            f"parent {row['parent_median']:.4g} change {row['change_median']:.4g} "
            f"wins {row['wins']}/{row['pairs']} spread {row['parent_spread']:.3f}"
            f"/{row['change_spread']:.3f} bound {row['bound']}"
        )
    print(json.dumps(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
