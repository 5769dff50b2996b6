"""Tests for confusion matrices, datasets, and their conversions."""

import itertools
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
from fairaudit.distributions import EPS_DEFAULT, ci_deviation
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
        for key in itertools.product(("g",), (POS, NEG), (POS, NEG)):
            assert Fraction(j.table.get(key, 0), j.denominator) == Fraction(1, 4)

    def test_before_tables_satisfy_sufficiency_and_separation(self):
        j = to_joint(GroupedConfusion(BEFORE))
        assert ci_deviation(j, "Y", "A", "R") <= EPS_DEFAULT
        assert ci_deviation(j, "R", "A", "Y") <= EPS_DEFAULT

    def test_group_marginal_matches_group_sizes(self):
        rng = random.Random(29)
        for _ in range(20):
            g = random_positive_grouped(rng)
            j = to_joint(g)
            for group in g.groups:
                weight = sum(w for key, w in j.table.items() if key[0] == group)
                assert Fraction(weight, j.denominator) == Fraction(g[group].n, g.total)

    def test_mass_is_one(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_positive_grouped(rng)
            j = to_joint(g)
            assert j.denominator == g.total
            grid = itertools.product(*(domain for _, domain in j.variables))
            assert sum(j.table.get(key, 0) for key in grid) == j.denominator

    def test_variable_layout(self):
        j = to_joint(GroupedConfusion(BEFORE))
        assert j.names == ("A", "Y", "R")
        assert j.domain("Y") == (POS, NEG)
        assert j.domain("R") == (POS, NEG)


class TestIsPositive:
    def test_before_tables_positive(self):
        assert is_positive(GroupedConfusion(BEFORE))

    def test_any_zero_cell_negative(self):
        # A lone zero in each of a, b, c and d.
        for cells in ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
            g = GroupedConfusion(
                {"p": ConfusionMatrix(*cells), "q": ConfusionMatrix(1, 1, 1, 1)}
            )
            assert not is_positive(g), cells

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
            Dataset.from_records([Record("1", "x", True, True)], groups=("p",))

    def test_score_range_enforced(self):
        with pytest.raises(InputError, match="\\[0, 1\\]"):
            Dataset.from_records([Record("1", "p", True, True, score=1.5)])

    def test_int_and_fraction_scores_in_range_accepted(self):
        scores = (0, 1, Fraction(1, 2), 0.25)
        records = [Record(str(i), "p", True, True, score) for i, score in enumerate(scores)]
        assert Dataset.from_records(records).records == tuple(records)

    @pytest.mark.parametrize(
        "y, r",
        [("1", True), (True, "no"), (1, False), (0, 1)],
        ids=["str-y", "str-r", "int-y", "ints"],
    )
    def test_labels_must_be_bools(self, y, r):
        # A string label reads as truthy in the scan, and tabulate cannot place it.
        records = [Record("ok", "p", True, False), Record("r7", "p", y, r, score=0.2)]
        message = f"^labels of 'r7' must be bool, got y={y!r}, r={r!r}$"
        with pytest.raises(InputError, match=message):
            Dataset.from_records(records)

    def test_a_bad_score_is_named_before_bad_labels(self):
        with pytest.raises(InputError, match="score for 'r7'"):
            Dataset.from_records([Record("r7", "p", "1", "0", score=1.5)])

    def test_plain_types_check_nothing(self):
        # Only from_records validates; a record and a dataset hold what they are given.
        rec = Record("1", "x", True, True, score=1.5)
        ds = Dataset(records=(rec, rec), groups=("p", "p"))
        assert ds.records == (("1", "x", True, True, 1.5),) * 2
        assert Dataset(records=()).groups is None

    def test_derived_groups_in_first_appearance_order(self):
        records = [Record(str(i), group, True, True) for i, group in enumerate("qpqrp")]
        ds = Dataset.from_records(records)
        assert ds.groups is None
        assert tabulate(ds).groups == ("q", "p", "r")

    def test_many_derived_groups_stay_fast(self):
        # 40k records in 20k groups took 7.8 s with a membership test per record.
        records = [Record(str(i), f"g{i // 2}", True, True) for i in range(40_000)]
        start = time.perf_counter()
        g = tabulate(Dataset.from_records(records))
        assert time.perf_counter() - start < 2.0
        assert g.groups == tuple(f"g{k}" for k in range(20_000))


class TestGroupedConfusion:
    def test_unknown_group_lookup(self):
        g = GroupedConfusion(BEFORE)
        with pytest.raises(InputError, match="unknown group"):
            g["z"]
        with pytest.raises(InputError, match="unknown group 0"):
            g[0]  # a label, never a position of the tuple

    def test_at_least_one_group(self):
        with pytest.raises(InputError, match="at least one group"):
            GroupedConfusion({})
