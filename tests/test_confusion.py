"""Tests for confusion matrices, datasets, and their conversions."""

import random
import time
from fractions import Fraction

import pytest
from builders import synthesize_dataset

from fairaudit.confusion import (
    NEG,
    POS,
    ConfusionMatrix,
    Dataset,
    GroupedConfusion,
    Record,
    is_positive,
    tabulate,
    to_joint,
)
from fairaudit.distributions import EPS_DEFAULT, ci_deviation, marginal
from fairaudit.errors import InputError
from fairaudit.generators import random_positive_grouped

BEFORE = {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}


class TestConfusionMatrix:
    def test_negative_cell_rejected(self):
        with pytest.raises(InputError, match="nonnegative"):
            ConfusionMatrix(1, -1, 0, 0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError, match="at least one"):
            ConfusionMatrix(0, 0, 0, 0)

    def test_bool_cells_rejected(self):
        with pytest.raises(InputError):
            ConfusionMatrix(True, 0, 0, 1)

    def test_scaled(self):
        assert ConfusionMatrix(1, 2, 3, 4).scaled(3) == ConfusionMatrix(3, 6, 9, 12)


class TestStats:
    def test_before_table_p(self):
        s = ConfusionMatrix(10, 2, 3, 11)
        assert s.accuracy == Fraction(21, 26)
        assert s.ppv == Fraction(10, 12)
        assert s.npv == Fraction(11, 14)
        assert s.fpr == Fraction(2, 13)
        assert s.fnr == Fraction(3, 13)

    def test_after_table_p(self):
        s = ConfusionMatrix(11, 2, 2, 11)
        assert s.ppv == Fraction(11, 13)
        assert s.fnr == Fraction(2, 13)

    def test_zero_denominator_is_undefined(self):
        s = ConfusionMatrix(0, 0, 1, 1)
        assert s.ppv is None
        assert s.npv == Fraction(1, 2)

    def test_accuracy_times_n_is_exact(self):
        rng = random.Random(17)
        for _ in range(50):
            m = ConfusionMatrix(
                rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9), rng.randint(1, 9)
            )
            assert m.accuracy * m.n == m.a + m.d


class TestTabulate:
    def test_one_record_per_cell(self):
        records = [
            Record("1", "g", True, True),
            Record("2", "g", False, True),
            Record("3", "g", True, False),
            Record("4", "g", False, False),
        ]
        g = tabulate(Dataset.from_records(records))
        assert g["g"] == ConfusionMatrix(1, 1, 1, 1)

    def test_before_tables_dataset(self):
        ds = synthesize_dataset(GroupedConfusion(BEFORE))
        g = tabulate(ds)
        assert g["p"] == ConfusionMatrix(10, 2, 3, 11)
        assert g["q"] == ConfusionMatrix(20, 4, 6, 22)
        assert g["p"].n + g["q"].n == 78

    def test_empty_group_excluded_with_warning(self):
        records = [Record("1", "p", True, True), Record("2", "p", False, False)]
        ds = Dataset.from_records(records, groups=("p", "q"))
        g = tabulate(ds)
        assert g.groups == ("p",)
        assert g.empty_groups == ("q",)

    def test_counts_sum_to_group_size(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_positive_grouped(rng)
            ds = synthesize_dataset(g)
            again = tabulate(ds)
            for group in g.groups:
                assert again[group].n == g[group].n

    def test_no_records_at_all_rejected(self):
        ds = Dataset(records=(), groups=("p", "q"))
        with pytest.raises(InputError, match="no records"):
            tabulate(ds)


class TestToJoint:
    def test_single_group_uniform_cells(self):
        g = GroupedConfusion({"g": ConfusionMatrix(1, 1, 1, 1)})
        j = to_joint(g)
        for key in j.assignments():
            assert j.prob(key) == Fraction(1, 4)

    def test_before_tables_satisfy_sufficiency_and_separation(self):
        j = to_joint(GroupedConfusion(BEFORE))
        assert ci_deviation(j, "Y", "A", "R") <= EPS_DEFAULT
        assert ci_deviation(j, "R", "A", "Y") <= EPS_DEFAULT

    def test_group_marginal_matches_group_sizes(self):
        rng = random.Random(29)
        for _ in range(20):
            g = random_positive_grouped(rng)
            m = marginal(to_joint(g), {"A"})
            for group in g.groups:
                assert m.prob((group,)) == Fraction(g[group].n, g.total)

    def test_mass_is_one(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_positive_grouped(rng)
            j = to_joint(g)
            assert j.denominator == g.total
            assert sum(j.prob(key) for key in j.assignments()) == 1

    def test_variable_layout(self):
        j = to_joint(GroupedConfusion(BEFORE))
        assert j.names == ("A", "Y", "R")
        assert j.domain("Y") == (POS, NEG)
        assert j.domain("R") == (POS, NEG)


class TestIsPositive:
    def test_before_tables_positive(self):
        assert is_positive(GroupedConfusion(BEFORE))

    def test_any_zero_cell_negative(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(1, 0, 1, 1), "q": ConfusionMatrix(1, 1, 1, 1)}
        )
        assert not is_positive(g)

    def test_all_ones(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(1, 1, 1, 1), "q": ConfusionMatrix(1, 1, 1, 1)}
        )
        assert is_positive(g)


class TestRoundTrip:
    def test_tabulate_of_synthesized_dataset_is_identity(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_positive_grouped(rng)
            assert tabulate(synthesize_dataset(g)).matrices == g.matrices


class TestDatasetValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            Dataset.from_records(
                [Record("1", "p", True, True), Record("1", "p", False, False)]
            )

    def test_undeclared_group_rejected(self):
        with pytest.raises(InputError, match="undeclared"):
            Dataset(records=(Record("1", "x", True, True),), groups=("p",))

    def test_score_range_enforced(self):
        with pytest.raises(InputError, match="\\[0, 1\\]"):
            Record("1", "p", True, True, score=1.5)

    def test_derived_groups_in_first_appearance_order(self):
        records = [Record(str(i), group, True, True) for i, group in enumerate("qpqrp")]
        assert Dataset.from_records(records).groups == ("q", "p", "r")

    def test_many_derived_groups_stay_fast(self):
        # 40k records in 20k groups took 7.8 s with a membership test per record.
        records = [Record(str(i), f"g{i // 2}", True, True) for i in range(40_000)]
        start = time.perf_counter()
        ds = Dataset.from_records(records)
        assert time.perf_counter() - start < 2.0
        assert ds.groups == tuple(f"g{k}" for k in range(20_000))

    def test_with_predictions_swaps(self):
        ds = Dataset.from_records(
            [Record("1", "p", True, False, 0.5), Record("2", "p", True, True, 0.9)]
        )
        flipped = ds.with_predictions({"1": True, "2": False})
        assert flipped.records[0].r is True
        assert flipped.records[1].r is False
        assert flipped.records[0].score == 0.5

    def test_with_predictions_unknown_id_rejected(self):
        ds = Dataset.from_records([Record("1", "p", True, False)])
        with pytest.raises(InputError, match="unknown record ids"):
            ds.with_predictions({"missing": True})


class TestGroupedConfusion:
    def test_unknown_group_lookup(self):
        g = GroupedConfusion(BEFORE)
        with pytest.raises(InputError, match="unknown group"):
            g["z"]

    def test_replace_keeps_order(self):
        g = GroupedConfusion(BEFORE)
        swapped = g.replace("p", ConfusionMatrix(1, 1, 1, 1))
        assert swapped.groups == ("p", "q")
        assert swapped["p"] == ConfusionMatrix(1, 1, 1, 1)
        assert swapped["q"] == g["q"]

    def test_at_least_one_group(self):
        with pytest.raises(InputError, match="at least one group"):
            GroupedConfusion({})
