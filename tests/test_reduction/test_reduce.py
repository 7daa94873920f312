"""Tests for the GLAV-to-GAV reduction (Theorem 1)."""

import pytest

from repro.parser import parse_mapping
from repro.reduction import EQ_RELATION, reduce_mapping
from repro.reduction.singularize import nullable_positions


class TestIdentityPath:
    def test_pure_gav_mapping_is_identity(self):
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET T/2.
            R(x, y) -> T(x, y).
            T(x, y), T(x, z) -> y = z.
            """
        )
        reduced = reduce_mapping(mapping)
        assert reduced.is_identity
        assert reduced.gav is mapping

    def test_multi_head_triggers_full_reduction(self):
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET T/2, U/2.
            R(x, y) -> T(x, y), U(y, x).
            """
        )
        assert not reduce_mapping(mapping).is_identity


class TestFullReduction:
    @pytest.fixture
    def reduced(self):
        return reduce_mapping(
            parse_mapping(
                """
                SOURCE R/1. TARGET T/2, U/2.
                R(x) -> T(x, y).
                T(x, y) -> U(y, x).
                T(x, y), T(x, z) -> y = z.
                """
            )
        )

    def test_output_is_gav(self, reduced):
        assert reduced.gav.is_gav_gav_egd()
        assert all(not t.existential for t in reduced.gav.all_tgds())

    def test_eq_relation_added(self, reduced):
        assert EQ_RELATION in reduced.gav.target

    def test_skolem_functions_recorded(self, reduced):
        assert len(reduced.skolem_functions) == 1
        (name,) = reduced.skolem_functions
        assert "y" in name

    def test_single_hard_egd(self, reduced):
        assert len(reduced.gav.target_egds) == 1
        (egd,) = reduced.gav.target_egds
        assert egd.constants_only
        assert egd.body[0].relation == EQ_RELATION

    def test_congruence_rules_present(self, reduced):
        labels = {t.label for t in reduced.gav.target_tgds}
        assert "eq_sym" in labels
        assert "eq_trans" in labels

    def test_reserved_relation_name_rejected(self):
        mapping = parse_mapping(
            """
            SOURCE R/1. TARGET EQ/2.
            R(x) -> EQ(x, y).
            """
        )
        with pytest.raises(ValueError, match="reserved"):
            reduce_mapping(mapping)

    def test_non_weakly_acyclic_rejected(self):
        mapping = parse_mapping(
            """
            SOURCE R/2. TARGET T/2.
            R(x, y) -> T(x, y).
            T(x, y) -> T(y, z).
            """
        )
        with pytest.raises(ValueError, match="weakly acyclic"):
            reduce_mapping(mapping)

    def test_stats(self, reduced):
        stats = reduced.stats()
        assert stats["tgds_before"] == 2
        assert stats["egds_before"] == 1
        assert stats["egds_after"] == 1
        assert stats["tgds_after"] > stats["tgds_before"]


class TestNullability:
    def test_copied_positions_not_nullable(self):
        reduced = reduce_mapping(
            parse_mapping(
                """
                SOURCE R/2. TARGET T/2.
                R(x, y) -> T(x, z).
                T(x, y), T(x, z) -> y = z.
                """
            )
        )
        assert ("T", 0) not in reduced.nullable
        assert ("T", 1) in reduced.nullable

    def test_nullability_propagates_through_target_tgds(self):
        reduced = reduce_mapping(
            parse_mapping(
                """
                SOURCE R/1. TARGET T/2, U/2.
                R(x) -> T(x, y).
                T(x, y) -> U(y, x).
                """
            )
        )
        assert ("U", 0) in reduced.nullable
        assert ("U", 1) not in reduced.nullable

    def test_reflexivity_only_for_nullable_positions(self):
        reduced = reduce_mapping(
            parse_mapping(
                """
                SOURCE R/2. TARGET T/2.
                R(x, y) -> T(x, z).
                T(x, y), T(x, z) -> y = z.
                """
            )
        )
        reflexivity_labels = {
            t.label for t in reduced.gav.target_tgds if t.label.startswith("eq_refl")
        }
        # Only T's nullable position (and the skolem witness's value slot).
        assert "eq_refl_T_1" in reflexivity_labels
        assert "eq_refl_T_0" not in reflexivity_labels


class TestSemanticEquivalence:
    """The reduced chase agrees with the standard chase on consistency."""

    @pytest.mark.parametrize(
        "facts, consistent",
        [
            ([("R", ("a", "b"))], True),
            # The null invented for R merges with S's constant: fine.
            ([("R", ("a", "b")), ("S", ("a", "c"))], True),
            # Two distinct constants forced equal through the null: failure.
            ([("R", ("a", "b")), ("S", ("a", "b")), ("S", ("a", "c"))], False),
        ],
    )
    def test_consistency_matches(self, facts, consistent):
        from repro.chase import has_solution
        from repro.relational import Fact, Instance
        from repro.xr.exchange import build_exchange_data

        mapping = parse_mapping(
            """
            SOURCE R/2, S/2. TARGET T/2.
            R(x, y) -> T(x, z).
            S(x, y) -> T(x, y).
            T(x, y), T(x, z) -> y = z.
            """
        )
        instance = Instance(Fact(r, args) for r, args in facts)
        reduced = reduce_mapping(mapping)
        data = build_exchange_data(reduced.gav, instance)
        assert (not data.violations) == has_solution(instance, mapping) == consistent
