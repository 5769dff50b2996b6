"""Differential and bound tests for the break-search enumerator.

``oracle_candidate_increments`` is the filter-over-``budget^m`` enumerator
that ``conservativeness._candidate_increments`` replaced, kept verbatim as
the reference: the bounded-composition version must yield the identical
sequence of increments, and ``find_break`` the identical witness.
"""

import itertools
import random
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairaudit import conservativeness
from fairaudit.confusion import ConfusionMatrix, GroupedConfusion
from fairaudit.conservativeness import (
    DIRECTIONS,
    FN_TO_TP,
    GroupShift,
    Increment,
    _bounded_compositions,
    _candidate_increments,
    find_break,
)
from fairaudit.errors import PreconditionError


def proportional_table(rng: random.Random) -> GroupedConfusion:
    """2-3 groups, each a multiple (1 or 2) of one positive base matrix, so
    both measures hold exactly."""
    base = ConfusionMatrix(*(rng.randint(1, 12) for _ in range(4)))
    groups = rng.randint(2, 3)
    return GroupedConfusion({f"g{i}": base.scaled(rng.randint(1, 2)) for i in range(groups)})


def oracle_candidate_increments(g: GroupedConfusion, budget: int) -> Iterator[Increment]:
    """Feasible increments that shift every group, in deterministic order:
    smallest total shift first, then count vectors in lexicographic order by
    group, then FN-to-TP before FP-to-TN per group."""
    groups = g.groups
    m = len(groups)
    for total in range(m, budget + 1):
        for counts in itertools.product(range(1, total + 1), repeat=m):
            if sum(counts) != total:
                continue
            for directions in itertools.product(DIRECTIONS, repeat=m):
                feasible = True
                for group, direction, count in zip(groups, directions, counts):
                    source = g[group].c if direction == FN_TO_TP else g[group].b
                    if count > source:
                        feasible = False
                        break
                if feasible:
                    yield Increment(
                        tuple(
                            GroupShift(group, direction, count)
                            for group, direction, count in zip(groups, directions, counts)
                        )
                    )


def find_break_with(enumerator, g: GroupedConfusion, budget: int):
    """``find_break`` run over the given candidate enumerator, or the
    ``PreconditionError`` it raised."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conservativeness, "_candidate_increments", enumerator)
        try:
            return find_break(g, budget=budget)
        except PreconditionError as exc:
            return str(exc)


def assert_same_search(g: GroupedConfusion, budget: int) -> None:
    assert list(_candidate_increments(g, budget)) == list(
        oracle_candidate_increments(g, budget)
    )
    assert find_break_with(_candidate_increments, g, budget) == find_break_with(
        oracle_candidate_increments, g, budget
    )


cells = st.integers(min_value=0, max_value=4)
matrices = st.builds(
    ConfusionMatrix, a=cells, b=cells, c=cells, d=st.integers(min_value=1, max_value=4)
)
tables = st.lists(matrices, min_size=1, max_size=4).map(
    lambda ms: GroupedConfusion({f"g{i}": m for i, m in enumerate(ms)})
)
budgets = st.integers(min_value=0, max_value=10)


class TestOracle:
    def test_seeded_tables(self):
        rng = random.Random(20160)
        for _ in range(100):
            groups = rng.randint(1, 4)
            g = GroupedConfusion(
                {
                    f"g{i}": ConfusionMatrix(
                        rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 5)
                    )
                    for i in range(groups)
                }
            )
            assert_same_search(g, rng.randint(0, 9))

    def test_seeded_proportional_tables(self):
        # Proportional tables satisfy both measures, so find_break searches.
        rng = random.Random(2016)
        for _ in range(40):
            g = proportional_table(rng)
            assert_same_search(g, rng.randint(0, 8))

    def test_documented_witness(self):
        g = GroupedConfusion(
            {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}
        )
        assert_same_search(g, 4)
        assert find_break(g, budget=2) is not None

    @given(g=tables, budget=budgets)
    def test_generated_tables(self, g, budget):
        assert_same_search(g, budget)

    @given(
        m=matrices,
        groups=st.integers(min_value=2, max_value=4),
        zeroed=st.sampled_from(("b", "c")),
        budget=budgets,
    )
    def test_generated_searched_tables_with_a_zero_error_cell(self, m, groups, zeroed, budget):
        # Identical groups satisfy both measures whenever their rates are
        # defined, so find_break walks the candidates; a zero b or c leaves
        # one direction per group, and b = c = 0 leaves none.
        m = m._replace(**{zeroed: 0})
        g = GroupedConfusion({f"g{i}": m for i in range(groups)})
        assert_same_search(g, budget)


class TestBound:
    GROUPS = GroupedConfusion({f"g{i}": ConfusionMatrix(3, 0, 1, 3) for i in range(6)})

    @pytest.mark.parametrize("budget", [30, 10**9])
    def test_single_candidate_and_no_witness(self, budget):
        candidates = list(_candidate_increments(self.GROUPS, budget))
        assert candidates == [
            Increment(tuple(GroupShift(f"g{i}", FN_TO_TP, 1) for i in range(6)))
        ]
        assert find_break(self.GROUPS, budget=budget) is None

    def test_compositions_are_exactly_those_within_caps(self):
        # A count above its cap yields no increment, so the enumerator's
        # output cannot show one; check the compositions themselves.
        rng = random.Random(30)
        for _ in range(300):
            caps = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 5)))
            total = rng.randint(0, 20)
            assert list(_bounded_compositions(total, caps)) == [
                counts
                for counts in itertools.product(*(range(1, cap + 1) for cap in caps))
                if sum(counts) == total
            ]
