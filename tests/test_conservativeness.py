"""Tests for perfect-predictor guarantees and the increment break search."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from conservativeness_oracle import check_conservativeness

from fairaudit.confusion import ConfusionMatrix, GroupedConfusion
from fairaudit.conservativeness import (
    FN_TO_TP,
    FP_TO_TN,
    GroupShift,
    Increment,
    apply_increment,
    check_joint_independence_iff,
    check_proportional_preservation,
    find_break,
    group_multipliers,
    is_perfect,
    perfect_predictor_holds,
)
from fairaudit.distributions import EPS_DEFAULT
from fairaudit.errors import InputError, PreconditionError
from fairaudit.measures import separation, sufficiency
from fairaudit.report import build_report, render
from fairaudit.generators import (
    random_nonproportional_grouped,
    random_perfect_grouped,
    random_positive_grouped,
    random_proportional_grouped,
)

BEFORE = {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}
AFTER = {"p": ConfusionMatrix(11, 2, 2, 11), "q": ConfusionMatrix(21, 4, 5, 22)}
PERFECT = {"p": ConfusionMatrix(5, 0, 0, 7), "q": ConfusionMatrix(3, 0, 0, 2)}


class TestIsPerfect:
    def test_perfect_tables(self):
        assert is_perfect(GroupedConfusion(PERFECT))

    def test_before_tables_not_perfect(self):
        assert not is_perfect(GroupedConfusion(BEFORE))

    def test_false_negative_only(self):
        assert not is_perfect(GroupedConfusion({"p": ConfusionMatrix(1, 0, 1, 0)}))


class TestPerfectPredictor:
    """The audit's perfect-predictor check: ``perfect_holds`` is
    :func:`perfect_predictor_holds`, read beside the audit's own verdicts."""

    def test_perfect_tables_report(self):
        report = build_report(GroupedConfusion(PERFECT), EPS_DEFAULT)
        independence, suff, sep = report.verdicts
        assert report.perfect_holds is True
        assert suff.disparity == 0
        assert sep.disparity == 0
        # Selection rates 5/12 vs 3/5 differ, so independence fails alongside.
        assert independence.holds is False
        assert independence.disparity == abs(
            Fraction(5, 12) - Fraction(3, 5)
        )

    def test_equal_base_rates_hold_everything(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(4, 0, 0, 4), "q": ConfusionMatrix(7, 0, 0, 7)}
        )
        report = build_report(g, EPS_DEFAULT)
        assert report.perfect_holds is True
        assert report.verdicts[0].holds is True

    def test_random_perfect_predictors_always_hold(self):
        rng = random.Random(61)
        for _ in range(100):
            assert perfect_predictor_holds(random_perfect_grouped(rng)) is True

    def test_non_perfect_rejected(self):
        with pytest.raises(PreconditionError, match="not perfect"):
            perfect_predictor_holds(GroupedConfusion(BEFORE))
        assert build_report(GroupedConfusion(BEFORE), EPS_DEFAULT).perfect_holds is None

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.05, math.nan])
    def test_predicate_is_the_verdicts_rule(self, eps):
        # On perfect tables every defined gap is 0, and a group with no
        # positives or no negatives leaves rates undefined: such a measure
        # counts as holding. Nothing is within a nan eps, so there only the
        # undefined measures hold. The audit's perfect_check is written as
        # the report check_conservativeness built, byte for byte.
        rng = random.Random(67)
        undefined = passed = 0
        for _ in range(300):
            g = random_perfect_grouped(rng)
            report = build_report(g, eps)
            oracle = check_conservativeness(g, eps)
            verdicts = (oracle.sufficiency.holds, oracle.separation.holds)
            rule = False not in verdicts
            assert perfect_predictor_holds(g, eps) is rule is report.perfect_holds is oracle.holds
            perfect_check = report.payload()["conservativeness"]["perfect_check"]
            assert render(perfect_check) == render(oracle._asdict())
            undefined += None in verdicts
            passed += rule
        assert undefined > 10
        assert passed == (undefined if math.isnan(eps) else 300)

    @pytest.mark.parametrize(
        "g", [GroupedConfusion(BEFORE), GroupedConfusion({"p": ConfusionMatrix(1, 0, 1, 0)})]
    )
    def test_predicate_refuses_a_table_that_is_not_perfect(self, g):
        with pytest.raises(PreconditionError) as raised:
            perfect_predictor_holds(g, 0.05)
        assert str(raised.value) == "predictor is not perfect: false cells present"


class TestJointIndependenceIff:
    def test_before_tables_both_sides_true(self):
        verdict = check_joint_independence_iff(GroupedConfusion(BEFORE))
        assert verdict.suff_and_sep is True
        assert verdict.joint_independent is True
        assert verdict.equivalent
        assert verdict.ci_deviation == 0

    def test_after_tables_both_sides_false(self):
        verdict = check_joint_independence_iff(GroupedConfusion(AFTER))
        assert verdict.suff_and_sep is False
        assert verdict.joint_independent is False
        assert verdict.equivalent
        assert verdict.ci_deviation > Fraction(1, 1000)

    def test_proportional_instances(self):
        rng = random.Random(67)
        for _ in range(50):
            verdict = check_joint_independence_iff(random_proportional_grouped(rng))
            assert verdict.suff_and_sep and verdict.joint_independent

    def test_nonproportional_instances(self):
        rng = random.Random(71)
        for _ in range(50):
            verdict = check_joint_independence_iff(random_nonproportional_grouped(rng))
            assert not verdict.suff_and_sep and not verdict.joint_independent

    def test_equivalence_over_random_positive_tables(self):
        rng = random.Random(73)
        for _ in range(100):
            assert check_joint_independence_iff(random_positive_grouped(rng)).equivalent

    def test_sufficiency_without_separation_is_not_both(self):
        # PPV 2/3 and NPV 2/3 in both groups, but FNR 1/3 against 1/5: one
        # measure holding does not make the left side true.
        g = GroupedConfusion({"p": ConfusionMatrix(2, 1, 1, 2), "q": ConfusionMatrix(4, 2, 1, 2)})
        assert sufficiency(g).holds is True
        assert separation(g).holds is False
        verdict = check_joint_independence_iff(g)
        assert verdict.suff_and_sep is False
        assert verdict.joint_independent is False
        assert verdict.equivalent is True

    def test_non_positive_rejected(self):
        with pytest.raises(PreconditionError, match="positive"):
            check_joint_independence_iff(GroupedConfusion(PERFECT))

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, 0.02])
    def test_sides_match_comparing_the_fractions_with_eps(self, eps):
        # Each side as the exact Fractions compare with the float eps: inf
        # admits every deviation and gap, nan none.
        rng = random.Random(83)
        tables = [GroupedConfusion(BEFORE), GroupedConfusion(AFTER)]
        tables += [random_positive_grouped(rng) for _ in range(30)]
        tables += [random_proportional_grouped(rng) for _ in range(10)]
        for g in tables:
            verdict = check_joint_independence_iff(g, eps)
            gaps = [m(g).disparity for m in (sufficiency, separation)]
            assert verdict.suff_and_sep is all(gap <= eps for gap in gaps)
            assert verdict.joint_independent is (verdict.ci_deviation <= eps)
            assert verdict.equivalent is (verdict.suff_and_sep == verdict.joint_independent)


class TestIncrement:
    def test_requires_a_positive_shift(self):
        with pytest.raises(InputError, match="at least one"):
            Increment((GroupShift("p", FN_TO_TP, 0),))

    def test_rejects_duplicate_groups(self):
        with pytest.raises(InputError, match="repeats"):
            Increment(
                (GroupShift("p", FN_TO_TP, 1), GroupShift("p", FP_TO_TN, 1))
            )

    def test_rejects_bad_direction(self):
        with pytest.raises(InputError, match="direction"):
            GroupShift("p", "sideways", 1)

    @pytest.mark.parametrize("count", [True, False])
    def test_rejects_bool_count(self, count):
        with pytest.raises(InputError, match="shift count must be a nonnegative integer"):
            GroupShift("p", FN_TO_TP, count)


class TestApplyIncrement:
    def test_unit_shift_per_group_gives_after_tables(self):
        inc = Increment(
            (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 1))
        )
        after = apply_increment(GroupedConfusion(BEFORE), inc)
        assert after["p"] == ConfusionMatrix(11, 2, 2, 11)
        assert after["q"] == ConfusionMatrix(21, 4, 5, 22)

    def test_zero_shift_leaves_group_untouched(self):
        inc = Increment(
            (GroupShift("p", FN_TO_TP, 0), GroupShift("q", FN_TO_TP, 1))
        )
        after = apply_increment(GroupedConfusion(BEFORE), inc)
        assert after["p"] == BEFORE["p"]
        assert after["q"] == ConfusionMatrix(21, 4, 5, 22)

    def test_full_false_negative_shift(self):
        inc = Increment(
            (GroupShift("p", FN_TO_TP, 3), GroupShift("q", FN_TO_TP, 6))
        )
        after = apply_increment(GroupedConfusion(BEFORE), inc)
        assert after["p"].c == 0
        assert after["q"].c == 0

    def test_overshift_rejected(self):
        inc = Increment((GroupShift("p", FN_TO_TP, 4),))
        with pytest.raises(InputError, match="cannot shift"):
            apply_increment(GroupedConfusion(BEFORE), inc)

    def test_sizes_fixed_and_accuracy_strictly_up(self):
        rng = random.Random(79)
        for _ in range(50):
            g = random_positive_grouped(rng)
            shifts = []
            for group in g.groups:
                direction = rng.choice((FN_TO_TP, FP_TO_TN))
                source = g[group].c if direction == FN_TO_TP else g[group].b
                shifts.append(GroupShift(group, direction, rng.randint(1, source)))
            after = apply_increment(g, Increment(tuple(shifts)))
            for group in g.groups:
                assert after[group].n == g[group].n
                assert after[group].accuracy > g[group].accuracy


class TestFindBreak:
    def test_before_tables_budget_two_returns_unit_increment(self):
        witness = find_break(GroupedConfusion(BEFORE), budget=2)
        assert witness is not None
        assert witness.increment == Increment(
            (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 1))
        )
        assert witness.broken == ("sufficiency", "separation")
        assert witness.after["p"] == ConfusionMatrix(11, 2, 2, 11)
        assert witness.after["q"] == ConfusionMatrix(21, 4, 5, 22)
        for group, delta in witness.accuracy_delta.items():
            assert delta > 0, group

    def test_higher_budget_still_prefers_smallest_total(self):
        witness = find_break(GroupedConfusion(BEFORE), budget=4)
        assert witness is not None
        assert sum(shift.count for shift in witness.increment.shifts) == 2

    def test_proportional_shift_is_skipped_not_excluded(self):
        # The (1 in p, 2 in q) FN->TP shift is a feasible candidate at total 3
        # but preserves both measures, so it can never be the witness.
        g = GroupedConfusion(BEFORE)
        proportional = Increment(
            (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 2))
        )
        after = apply_increment(g, proportional)
        from fairaudit.measures import separation, sufficiency

        assert sufficiency(after).holds is True
        assert separation(after).holds is True
        witness = find_break(g, budget=3)
        assert witness is not None
        assert witness.increment != proportional

    def test_perfect_predictor_has_no_increment(self):
        assert find_break(GroupedConfusion(PERFECT), budget=5) is None

    def test_precondition_lists_failing_measures(self):
        with pytest.raises(PreconditionError, match="sufficiency"):
            find_break(GroupedConfusion(AFTER), budget=2)

    def test_deterministic(self):
        g = GroupedConfusion(BEFORE)
        assert find_break(g, budget=3) == find_break(g, budget=3)

    def test_never_none_on_before_tables_with_budget_at_least_two(self):
        for budget in (2, 3, 4, 5):
            assert find_break(GroupedConfusion(BEFORE), budget=budget) is not None


class TestProportionalPreservation:
    def test_before_tables_unit_shift(self):
        report = check_proportional_preservation(GroupedConfusion(BEFORE))
        assert report.multipliers == {"p": 1, "q": 2}
        assert report.increment == Increment(
            (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 2))
        )
        assert report.after["p"] == ConfusionMatrix(11, 2, 2, 11)
        assert report.after["q"] == ConfusionMatrix(22, 4, 4, 22)
        assert report.preserved
        assert report.sufficiency.disparity == 0
        assert report.separation.disparity == 0

    def test_multiplier_three_pair(self):
        base = ConfusionMatrix(4, 2, 3, 5)
        g = GroupedConfusion({"p": base, "q": base.scaled(3)})
        report = check_proportional_preservation(g)
        assert report.multipliers == {"p": 1, "q": 3}
        assert report.increment == Increment(
            (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 3))
        )
        assert report.preserved

    def test_base_with_one_false_negative_is_feasible(self):
        # The base group's multiplier is 1, so one false negative is enough.
        base = ConfusionMatrix(3, 1, 1, 2)
        report = check_proportional_preservation(
            GroupedConfusion({"p": base, "q": base.scaled(2)})
        )
        assert report.after["p"] == ConfusionMatrix(4, 1, 0, 2)
        assert report.preserved

    def test_rate_left_undefined_in_every_group_is_preserved(self):
        # Without true negatives, the shift empties NPV's denominator in both
        # groups: sufficiency is NOT-COMPARABLE, which is not a break.
        g = GroupedConfusion({"p": ConfusionMatrix(1, 1, 1, 0), "q": ConfusionMatrix(2, 2, 2, 0)})
        report = check_proportional_preservation(g)
        assert report.after.matrices == {
            "p": ConfusionMatrix(2, 1, 0, 0),
            "q": ConfusionMatrix(4, 2, 0, 0),
        }
        assert report.sufficiency.holds is None
        assert report.sufficiency.component_gaps == {"ppv_gap": 0, "npv_gap": None}
        assert report.separation.holds is True
        assert report.separation.disparity == 0
        assert report.preserved is True
        # Nothing is within a nan eps, so there separation's verdict fails.
        assert check_proportional_preservation(g, math.nan).preserved is False

    def test_every_small_proportional_table_is_preserved(self):
        # Every base with cells 0..3 and a false negative, in 2 and 3 groups
        # with multipliers 1..3 that include 1: 1,728 tables, at eps 0 and 1e-9.
        # No measure depends on the order of the groups, so the multipliers are
        # a multiset, in descending order: the base group comes last.
        bases = [ConfusionMatrix(*m) for m in itertools.product(range(4), repeat=4) if m[2]]
        tables = 0
        for groups in (2, 3):
            for ks in itertools.combinations_with_replacement((3, 2, 1), groups):
                if 1 not in ks:
                    continue
                for base in bases:
                    g = GroupedConfusion({f"g{i}": base.scaled(k) for i, k in enumerate(ks)})
                    for eps in (0.0, EPS_DEFAULT):
                        report = check_proportional_preservation(g, eps)
                        assert report.preserved, (g, eps)
                    assert list(report.multipliers.values()) == list(ks)
                    tables += 1
        assert tables == 1_728

    def test_non_proportional_rejected(self):
        with pytest.raises(PreconditionError, match="not integer multiples"):
            check_proportional_preservation(GroupedConfusion(AFTER))

    def test_infeasible_unit_rejected(self):
        base = ConfusionMatrix(4, 2, 0, 5)
        g = GroupedConfusion({"p": base, "q": base.scaled(2)})
        with pytest.raises(PreconditionError, match="false negatives"):
            check_proportional_preservation(g)

    def test_group_multipliers_detects_non_multiples(self):
        assert group_multipliers(GroupedConfusion(AFTER)) is None
        assert group_multipliers(GroupedConfusion(BEFORE)) == {"p": 1, "q": 2}

    def test_group_multipliers_matches_the_old_rule(self):
        # The old base rule, with an explicit group-order tie key, is the oracle.
        def old_group_multipliers(g):
            base_group = min(g.groups, key=lambda group: (g[group].n, g.groups.index(group)))
            base = g[base_group]
            multipliers = {}
            for group in g.groups:
                m = g[group]
                if m.n % base.n:
                    return None
                k = m.n // base.n
                if (m.a, m.b, m.c, m.d) != (base.a * k, base.b * k, base.c * k, base.d * k):
                    return None
                multipliers[group] = k
            return multipliers

        rng = random.Random(137)
        for _ in range(300):
            bases = [ConfusionMatrix(rng.randint(1, 3), *(rng.randint(0, 3) for _ in "bcd"))]
            bases.append(bases[0] if rng.random() < 0.7 else ConfusionMatrix(1, 1, 1, 1))
            g = GroupedConfusion(
                {
                    f"g{i}": rng.choice(bases).scaled(rng.randint(1, 3))
                    for i in range(rng.randint(2, 6))
                }
            )
            assert group_multipliers(g) == old_group_multipliers(g)

    def test_group_multipliers_on_many_tied_groups(self):
        # 20k groups took 8.6 s when the tie key searched the group tuple.
        multipliers = {f"g{i}": 2 if i == 0 else 1 + i % 3 for i in range(20_000)}
        base = ConfusionMatrix(1, 2, 3, 4)
        g = GroupedConfusion({group: base.scaled(k) for group, k in multipliers.items()})
        start = time.perf_counter()
        assert group_multipliers(g) == multipliers
        assert time.perf_counter() - start < 2.0
