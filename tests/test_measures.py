"""Tests for the three group-fairness measures and the cell kernel they share."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from fairaudit.confusion import ConfusionMatrix, GroupedConfusion
from fairaudit.errors import InputError, PreconditionError
from fairaudit.generators import random_positive_grouped
from fairaudit.measures import (
    INDEPENDENCE,
    MEASURES,
    SEPARATION,
    SUFFICIENCY,
    cell_gaps,
    cells_hold,
    evaluate_measure,
    independence,
    separation,
    sufficiency,
)

BEFORE = {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}
AFTER = {"p": ConfusionMatrix(11, 2, 2, 11), "q": ConfusionMatrix(21, 4, 5, 22)}


class TestIndependence:
    def test_before_tables_hold_with_zero_disparity(self):
        verdict = independence(GroupedConfusion(BEFORE))
        assert verdict.holds is True
        assert verdict.disparity == 0
        assert verdict.witnesses == ("p", "q")

    def test_after_tables_fail(self):
        verdict = independence(GroupedConfusion(AFTER))
        assert verdict.holds is False
        assert verdict.disparity == Fraction(1, 52)

    def test_identical_matrices_zero_disparity(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(3, 1, 2, 4), "q": ConfusionMatrix(3, 1, 2, 4)}
        )
        assert independence(g).disparity == 0

    def test_single_group_rejected(self):
        with pytest.raises(PreconditionError, match="two groups"):
            independence(GroupedConfusion({"p": ConfusionMatrix(1, 1, 1, 1)}))


class TestCellKernelTwoGroupRule:
    """``cell_gaps`` and ``cells_hold`` refuse fewer than two groups as the
    verdicts do, naming the cells they were given, and still refuse an unknown
    measure first."""

    @pytest.mark.parametrize("check", [cell_gaps, lambda m, cells: cells_hold(m, cells, 0.1)])
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize(
        "cells, got",
        [
            ([(1, 1, 1, 1)], "((1, 1, 1, 1),)"),
            ([], "()"),
            ({"p": (5, 0, 0, 7)}.values(), "((5, 0, 0, 7),)"),
        ],
        ids=["one-group", "no-group", "one-group-view"],
    )
    def test_fewer_than_two_groups_refused(self, check, measure, cells, got):
        message = f"fairness measures need at least two groups, got {got}"
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            check(measure, cells)

    @pytest.mark.parametrize("cells", [[], [(1, 1, 1, 1)]], ids=["no-group", "one-group"])
    def test_unknown_measure_refused_before_the_group_count(self, cells):
        with pytest.raises(InputError, match="unknown measure"):
            cell_gaps("parity", cells)
        with pytest.raises(InputError, match="unknown measure"):
            evaluate_measure(GroupedConfusion({"p": ConfusionMatrix(1, 1, 1, 1)}), "parity")

    def test_two_groups_are_decided(self):
        assert cells_hold(INDEPENDENCE, [(1, 1, 1, 1), (1, 1, 1, 1)], 0.1) is True
        assert cell_gaps(INDEPENDENCE, [(1, 1, 1, 1), (3, 0, 0, 1)]) == {
            "selection_rate_gap": (4, 16, 0, 1)  # 3/4 - 2/4, unreduced
        }


class TestSufficiency:
    def test_before_tables_hold(self):
        verdict = sufficiency(GroupedConfusion(BEFORE))
        assert verdict.holds is True
        assert verdict.component_gaps["ppv_gap"] == 0
        assert verdict.component_gaps["npv_gap"] == 0

    def test_after_tables_ppv_gap(self):
        verdict = sufficiency(GroupedConfusion(AFTER))
        assert verdict.holds is False
        assert verdict.component_gaps["ppv_gap"] == Fraction(2, 325)
        assert float(verdict.component_gaps["ppv_gap"]) == pytest.approx(0.006154, abs=1e-6)

    def test_undefined_ppv_not_comparable(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(0, 0, 1, 1), "q": ConfusionMatrix(1, 1, 1, 1)}
        )
        verdict = sufficiency(g)
        assert verdict.holds is None
        assert verdict.disparity is None
        assert verdict.component_gaps["ppv_gap"] is None


class TestSeparation:
    def test_before_tables_hold(self):
        verdict = separation(GroupedConfusion(BEFORE))
        assert verdict.holds is True
        assert verdict.component_gaps["fpr_gap"] == 0
        assert verdict.component_gaps["fnr_gap"] == 0

    def test_after_tables_fnr_gap(self):
        verdict = separation(GroupedConfusion(AFTER))
        assert verdict.holds is False
        assert verdict.component_gaps["fnr_gap"] == Fraction(1, 26)
        assert verdict.component_gaps["fpr_gap"] == 0
        assert verdict.disparity == Fraction(1, 26)

    def test_perfect_predictor_zero_gaps(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(5, 0, 0, 7), "q": ConfusionMatrix(3, 0, 0, 2)}
        )
        verdict = separation(g)
        assert verdict.component_gaps["fpr_gap"] == 0
        assert verdict.component_gaps["fnr_gap"] == 0
        assert verdict.holds is True


class TestVerdictFacts:
    """Verdicts pinned on tables built to show one fact each."""

    def test_before_tables_hold_and_after_tables_fail(self):
        for measure in MEASURES:
            assert evaluate_measure(GroupedConfusion(BEFORE), measure).holds is True
            assert evaluate_measure(GroupedConfusion(AFTER), measure).holds is False

    def test_four_hundred_million_records(self):
        # A tiny group beside a huge one: a mass-weighted deviation would be
        # 6.25e-10 here, but the rate gaps are 1/6.
        big = 10**8
        g = GroupedConfusion(
            {"p": ConfusionMatrix(2, 1, 1, 2), "q": ConfusionMatrix(big, big, big, big)}
        )
        for measure in (SUFFICIENCY, SEPARATION):
            verdict = evaluate_measure(g, measure)
            assert verdict.holds is False
            assert verdict.disparity == Fraction(1, 6)
        verdict = independence(g)
        assert verdict.holds is True
        assert verdict.disparity == 0 and isinstance(verdict.disparity, Fraction)

    def test_undefined_rate_not_comparable(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(0, 0, 1, 1), "q": ConfusionMatrix(1, 1, 1, 1)}
        )
        verdict = sufficiency(g)
        assert verdict.holds is None and verdict.disparity is None
        assert verdict.component_gaps == {"ppv_gap": None, "npv_gap": 0}

    def test_single_group_rejected_by_every_measure(self):
        g = GroupedConfusion({"p": ConfusionMatrix(1, 1, 1, 1)})
        for measure in MEASURES:
            with pytest.raises(PreconditionError, match="two groups"):
                evaluate_measure(g, measure)

    def test_product_table_satisfies_all_measures(self):
        # A independent of (Y, R) by construction: each group's cells are one
        # (Y, R) table scaled by the group's weight.
        cells = ConfusionMatrix(3, 2, 1, 4)
        g = GroupedConfusion({"p": cells.scaled(2), "q": cells.scaled(3)})
        for measure in MEASURES:
            assert evaluate_measure(g, measure).holds is True

    def test_correlated_group_and_prediction_fails_independence(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(1, 0, 0, 0), "q": ConfusionMatrix(0, 0, 1, 0)}
        )
        assert independence(g).holds is False

    def test_unknown_measure_rejected(self):
        with pytest.raises(InputError, match="unknown measure"):
            evaluate_measure(GroupedConfusion(BEFORE), "parity")


class TestInvariances:
    def test_scaling_invariance(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_positive_grouped(rng)
            for k in (2, 3, 7):
                scaled = GroupedConfusion(
                    {group: g[group].scaled(k) for group in g.groups}
                )
                for measure in MEASURES:
                    original = evaluate_measure(g, measure)
                    rescaled = evaluate_measure(scaled, measure)
                    assert original.holds == rescaled.holds
                    assert original.component_gaps == rescaled.component_gaps

    def test_group_relabeling_invariance(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_positive_grouped(rng)
            for order in itertools.permutations(g.groups):
                reordered = GroupedConfusion({group: g[group] for group in order})
                for measure in MEASURES:
                    original = evaluate_measure(g, measure)
                    permuted = evaluate_measure(reordered, measure)
                    assert original.holds == permuted.holds
                    assert original.disparity == permuted.disparity
                    if original.witnesses is not None:
                        assert set(original.witnesses) == set(permuted.witnesses)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_swapping_false_cells_exchanges_sufficiency_and_separation(self, eps):
        # Swapping b and c exchanges Y and R: PPV becomes 1 - FNR and NPV
        # becomes 1 - FPR, so each gap is the other measure's matching gap.
        # The witnesses may differ where two groups tie.
        for seed, draws in ((41, 60), (43, 25), (47, 25)):
            rng = random.Random(seed)
            for _ in range(draws):
                g = random_positive_grouped(rng)
                swapped = GroupedConfusion(
                    {group: ConfusionMatrix(m.a, m.c, m.b, m.d) for group, m in g.matrices.items()}
                )
                for one, other in ((swapped, g), (g, swapped)):
                    suff, sep = sufficiency(one, eps), separation(other, eps)
                    assert suff.component_gaps["ppv_gap"] == sep.component_gaps["fnr_gap"]
                    assert suff.component_gaps["npv_gap"] == sep.component_gaps["fpr_gap"]
                    assert (suff.disparity, suff.holds) == (sep.disparity, sep.holds)

    def test_proportional_groups_hold_exactly(self):
        rng = random.Random(53)
        for _ in range(25):
            base = ConfusionMatrix(
                rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
            )
            g = GroupedConfusion({"p": base, "q": base.scaled(rng.randint(2, 5))})
            assert sufficiency(g).disparity == 0
            assert separation(g).disparity == 0
