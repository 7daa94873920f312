"""The batch-vs-reference differential battery.

``build_exchange_data`` (the batch chase) must be **bit-identical** to the
naive test-only reference of :mod:`tests.naive_exchange` — same chased
instance, same canonical grounding and violation lists, same interned id
universe and adjacency arrays, same cluster partition — across the fuzz
corpus, freeform/iBench fuzz seeds, and the TPC-H grid.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.reduction.reduce import reduce_mapping
from repro.scenarios.tpch import tpch_scenario
from repro.xr.envelope import analyze_envelopes
from repro.xr.exchange import build_exchange_data
from tests.naive_exchange import naive_exchange_data

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

#: Every evaluation-sensitive artifact of the exchange computation.
COMPARED_FIELDS = (
    "groundings",
    "violations",
    "fact_ids",
    "facts_by_id",
    "grounding_bodies",
    "grounding_heads",
    "groundings_by_head",
    "occurs_in_body",
    "violation_bodies",
    "violations_by_fact",
)


def assert_identical_exchange(mapping, instance, label):
    gav = mapping if mapping.is_gav_gav_egd() else reduce_mapping(mapping).gav
    batch = build_exchange_data(gav, instance)
    reference = naive_exchange_data(gav, instance)
    # The Instance's iteration order is incidental (chase insertion
    # order); the canonical order lives in the interned universe
    # (``facts_by_id``), compared below.
    assert set(batch.chased) == set(reference.chased), f"{label}: chased"
    for name in COMPARED_FIELDS:
        assert getattr(batch, name) == getattr(reference, name), f"{label}: {name}"
    batch_clusters = {
        frozenset(map(repr, c.violations))
        for c in analyze_envelopes(batch).clusters
    }
    reference_clusters = {
        frozenset(map(repr, c.violations))
        for c in analyze_envelopes(reference).clusters
    }
    assert batch_clusters == reference_clusters, f"{label}: clusters"


class TestFuzzSeeds:
    @pytest.mark.parametrize("seed", range(25))
    def test_freeform_and_mixed_seeds(self, seed):
        scenario = random_scenario(seed, DEFAULT_CONFIG)
        assert_identical_exchange(
            scenario.mapping, scenario.instance, f"seed {seed}"
        )

    @pytest.mark.parametrize("seed", (0, 3, 11, 17, 29))
    def test_ibench_seeds(self, seed):
        config = replace(DEFAULT_CONFIG, profile="ibench")
        scenario = random_scenario(seed, config)
        assert_identical_exchange(
            scenario.mapping, scenario.instance, f"ibench seed {seed}"
        )


class TestCorpusAndTpch:
    def test_checked_in_corpus(self):
        entries = load_corpus(CORPUS_DIR)
        assert entries
        for path, scenario in entries:
            assert_identical_exchange(
                scenario.mapping, scenario.instance, path.name
            )

    @pytest.mark.parametrize(
        "scale,ratio,seed",
        [(0.002, 0.0, 0), (0.005, 0.2, 1), (0.005, 0.5, 2), (0.01, 0.2, 0)],
    )
    def test_tpch_grid(self, scale, ratio, seed):
        scenario = tpch_scenario(scale, ratio, seed)
        assert_identical_exchange(
            scenario.mapping, scenario.instance,
            f"tpch sf={scale} r={ratio} seed={seed}",
        )
