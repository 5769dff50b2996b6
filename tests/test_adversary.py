"""Tests for the gerrymandering attacks and the Lipschitz violation scan."""

import math
import random
from fractions import Fraction

import pytest
from builders import random_scored_dataset

from fairaudit.adversary import lipschitz_violations, reservoir_attack, swap_attack
from fairaudit.confusion import (
    ConfusionMatrix,
    Dataset,
    GroupedConfusion,
    Record,
    tabulate,
)
from fairaudit.errors import Infeasible, InputError, PreconditionError
from fairaudit.measures import MEASURES, evaluate_measure

BEFORE = {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}


class TestReservoirAttack:
    def test_smallest_plan_on_before_table_q(self):
        result = reservoir_attack(GroupedConfusion(BEFORE), "q", z_max=13)
        assert result.plan.z == 13
        assert result.plan.z_plus == 10
        assert result.plan.z_minus == 3
        assert result.after["q"] == ConfusionMatrix(30, 4, 9, 22)

    def test_fnr_preserved_as_exact_identity(self):
        g = GroupedConfusion(BEFORE)
        result = reservoir_attack(g, "q", z_max=13)
        before_m, after_m = g["q"], result.after["q"]
        plan = result.plan
        # Cross-multiplied integer identities, no fractions involved:
        # hires keep the TP share, so the FN share is untouched too.
        assert (before_m.a + plan.z_plus) * (before_m.a + before_m.c) == before_m.a * (
            before_m.a + before_m.c + plan.z
        )
        assert after_m.c * (before_m.a + before_m.c) == before_m.c * (
            after_m.a + after_m.c
        )
        assert after_m.fnr == before_m.fnr == Fraction(6, 26)
        assert after_m.fpr == before_m.fpr

    def test_other_group_untouched(self):
        result = reservoir_attack(GroupedConfusion(BEFORE), "q", z_max=13)
        assert result.after["p"] == BEFORE["p"]

    def test_separation_verdict_unchanged_independence_breaks(self):
        result = reservoir_attack(GroupedConfusion(BEFORE), "q", z_max=13)
        assert result.separation_before.holds is True
        assert result.separation_after.holds is True
        assert result.separation_after.disparity == result.separation_before.disparity
        assert result.independence_before.holds is True
        assert result.independence_after.holds is False
        assert result.independence_after.disparity > 0

    def test_selection_rate_strictly_rises(self):
        g = GroupedConfusion(BEFORE)
        result = reservoir_attack(g, "q", z_max=13)
        before, after = g["q"], result.after["q"]
        assert Fraction(after.a + after.b, after.n) > Fraction(before.a + before.b, before.n)

    def test_balanced_group_needs_reservoir_of_two(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(2, 1, 2, 1), "q": ConfusionMatrix(4, 2, 4, 2)}
        )
        result = reservoir_attack(g, "q", z_max=5)
        assert result.plan.z == 2
        assert result.plan.z_plus == 1
        assert result.plan.z_minus == 1

    def test_infeasible_when_z_max_too_small(self):
        with pytest.raises(Infeasible, match="multiple of 13"):
            reservoir_attack(GroupedConfusion(BEFORE), "q", z_max=1)

    def test_requires_separation_to_hold(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(11, 2, 2, 11), "q": ConfusionMatrix(21, 4, 5, 22)}
        )
        with pytest.raises(PreconditionError, match="separation"):
            reservoir_attack(g, "q", z_max=13)

    def test_requires_positive_labels_in_target(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(0, 1, 0, 1), "q": ConfusionMatrix(0, 2, 0, 2)}
        )
        with pytest.raises(PreconditionError, match="positive-label"):
            reservoir_attack(g, "q", z_max=5)


def scored_pair_dataset() -> Dataset:
    """Two-record group: a false negative at 0.6 and a true positive at 0.9."""
    return Dataset.from_records(
        [
            Record("x", "p", True, False, 0.6),
            Record("xstar", "p", True, True, 0.9),
            Record("other", "q", False, False, 0.5),
        ],
        groups=("p", "q"),
    )


class TestSwapAttack:
    def test_two_record_construction(self):
        result = swap_attack(scored_pair_dataset(), "p")
        assert result.swapped_pair == ("x", "xstar")
        assert result.score_gap == pytest.approx(0.3)
        by_id = {rec.id: rec for rec in result.after.records}
        assert by_id["x"].r is True
        assert by_id["xstar"].r is False

    def test_matrices_unchanged(self):
        ds = scored_pair_dataset()
        result = swap_attack(ds, "p")
        assert tabulate(result.after).matrices == tabulate(ds).matrices

    def test_group_verdicts_unchanged(self):
        rng = random.Random(83)
        for _ in range(30):
            ds, group = random_scored_dataset(rng)
            result = swap_attack(ds, group)
            before_g = tabulate(ds)
            after_g = tabulate(result.after)
            assert before_g.matrices == after_g.matrices
            for measure in MEASURES:
                assert (
                    evaluate_measure(before_g, measure).holds
                    == evaluate_measure(after_g, measure).holds
                )

    def test_maximal_gap_pair_chosen(self):
        ds = Dataset.from_records(
            [
                Record("fn-low", "p", True, False, 0.10),
                Record("fn-high", "p", True, False, 0.50),
                Record("tp-low", "p", True, True, 0.55),
                Record("tp-high", "p", True, True, 0.95),
            ]
        )
        result = swap_attack(ds, "p")
        assert result.swapped_pair == ("fn-low", "tp-high")
        assert result.score_gap == pytest.approx(0.85)

    def test_ties_broken_by_id_order(self):
        ds = Dataset.from_records(
            [
                Record("a-fn", "p", True, False, 0.2),
                Record("b-fn", "p", True, False, 0.2),
                Record("a-tp", "p", True, True, 0.8),
                Record("b-tp", "p", True, True, 0.8),
            ]
        )
        result = swap_attack(ds, "p")
        assert result.swapped_pair == ("a-fn", "a-tp")

    def test_lowest_scored_fn_wins_when_gaps_round_equal(self):
        # 0.9 - 0.1 and 0.9 - nextafter(0.1, 1) round to the same float, so a
        # pick by score gap with an id tie-break would take "a".
        higher = math.nextafter(0.1, 1)
        assert 0.9 - 0.1 == 0.9 - higher
        ds = Dataset.from_records(
            [
                Record("z", "p", True, False, 0.1),
                Record("a", "p", True, False, higher),
                Record("t", "p", True, True, 0.9),
            ]
        )
        result = swap_attack(ds, "p")
        assert result.swapped_pair == ("z", "t")
        assert result.score_gap == 0.9 - 0.1

    def test_no_false_negative_is_infeasible(self):
        ds = Dataset.from_records(
            [
                Record("1", "p", True, True, 0.9),
                Record("2", "p", False, False, 0.2),
            ]
        )
        with pytest.raises(Infeasible, match="no false negative"):
            swap_attack(ds, "p")

    def test_higher_scored_fn_is_infeasible(self):
        ds = Dataset.from_records(
            [
                Record("1", "p", True, False, 0.9),
                Record("2", "p", True, True, 0.4),
            ]
        )
        with pytest.raises(Infeasible):
            swap_attack(ds, "p")

    def test_unscored_group_rejected(self):
        ds = Dataset.from_records(
            [
                Record("1", "p", True, False),
                Record("2", "p", True, True, 0.9),
            ]
        )
        with pytest.raises(PreconditionError, match="unscored"):
            swap_attack(ds, "p")

    def test_unknown_group_rejected(self):
        with pytest.raises(InputError, match="no records"):
            swap_attack(scored_pair_dataset(), "z")


class TestLipschitzViolations:
    def test_post_swap_pair_is_flagged(self):
        result = swap_attack(scored_pair_dataset(), "p")
        report = lipschitz_violations(result.after, scale=1.0)
        distances = {(a, b): d for a, b, d in report.violations}
        assert distances[("x", "xstar")] == pytest.approx(0.3)

    def test_identical_scores_same_prediction_no_violation(self):
        ds = Dataset.from_records(
            [Record("1", "p", True, True, 0.5), Record("2", "p", False, True, 0.5)]
        )
        assert lipschitz_violations(ds).violations == []

    def test_identical_scores_different_predictions_margin_one(self):
        ds = Dataset.from_records(
            [Record("1", "p", True, True, 0.5), Record("2", "p", True, False, 0.5)]
        )
        report = lipschitz_violations(ds)
        assert report.violations == [("1", "2", 0.0)]

    def test_unscored_records_skipped_with_warning(self):
        ds = Dataset.from_records(
            [
                Record("1", "p", True, True, 0.5),
                Record("2", "p", True, False, 0.5),
                Record("3", "p", False, False),
            ]
        )
        report = lipschitz_violations(ds)
        assert report.skipped == ("3",)
        assert all("3" not in (a, b) for a, b, _ in report.violations)

    def test_sorted_by_descending_margin(self):
        ds = Dataset.from_records(
            [
                Record("1", "p", True, True, 0.50),
                Record("2", "p", True, False, 0.55),
                Record("3", "p", True, False, 0.90),
            ]
        )
        report = lipschitz_violations(ds)
        margins = [1.0 - d for _, _, d in report.violations]
        assert margins == sorted(margins, reverse=True)

    def test_scale_loosens_the_metric(self):
        ds = Dataset.from_records(
            [Record("1", "p", True, True, 0.2), Record("2", "p", True, False, 0.9)]
        )
        assert len(lipschitz_violations(ds, scale=1.0).violations) == 1
        # With scale 0.5 the score distance doubles past D = 1.
        assert lipschitz_violations(ds, scale=0.5).violations == []

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(InputError, match="scale"):
            lipschitz_violations(scored_pair_dataset(), scale=0.0)

    @pytest.mark.parametrize(
        "scale", [float("nan"), float("inf"), -float("inf"), -1.0, "1", True]
    )
    def test_scale_must_be_a_finite_positive_number(self, scale):
        with pytest.raises(InputError, match="finite number > 0"):
            lipschitz_violations(scored_pair_dataset(), scale=scale)
