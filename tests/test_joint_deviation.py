"""Differential tests for the joint-independence deviation.

``oracle_joint_independence_deviation`` is the integer cross-multiplication
on counts that ``check_joint_independence_iff`` used before it called the
general kernel ``ci_deviation`` on the count joint, kept verbatim as the
reference: both must give the identical ``Fraction``. The count joint itself
must equal the public constructor's joint on its parts.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from joint_oracle import assert_revalidates

from fairaudit.confusion import NEG, POS, ConfusionMatrix, GroupedConfusion, to_joint
from fairaudit.conservativeness import check_joint_independence_iff
from fairaudit.generators import (
    random_nonproportional_grouped,
    random_positive_grouped,
    random_proportional_grouped,
)


def oracle_joint_independence_deviation(g: GroupedConfusion) -> Fraction:
    """Exact deviation of A from the fused (Y, R) variable.

    Computed by integer cross-multiplication on counts:
    max |P(a, yr) - P(a) * P(yr)| with all probabilities count / total.
    """
    total = g.total
    cells = {
        group: {
            (POS, POS): m.a,
            (NEG, POS): m.b,
            (POS, NEG): m.c,
            (NEG, NEG): m.d,
        }
        for group, m in g.matrices.items()
    }
    worst = Fraction(0)
    for yr in itertools.product((POS, NEG), repeat=2):
        column = sum(group_cells[yr] for group_cells in cells.values())
        for group, m in g.matrices.items():
            dev = abs(Fraction(cells[group][yr], total) - Fraction(m.n * column, total * total))
            if dev > worst:
                worst = dev
    return worst


def assert_matches_oracle(g: GroupedConfusion) -> None:
    assert_revalidates(to_joint(g))
    deviation = check_joint_independence_iff(g).ci_deviation
    assert isinstance(deviation, Fraction)
    assert deviation == oracle_joint_independence_deviation(g)


def test_seeded_tables_match_the_oracle():
    rng = random.Random(97)
    for generate in (
        random_positive_grouped,
        random_proportional_grouped,
        random_nonproportional_grouped,
    ):
        for _ in range(40):
            assert_matches_oracle(generate(rng))


CELL = st.integers(min_value=1, max_value=10**9)
MATRIX = st.builds(ConfusionMatrix, CELL, CELL, CELL, CELL)


@given(st.lists(MATRIX, min_size=2, max_size=4))
def test_hypothesis_tables_match_the_oracle(matrices):
    g = GroupedConfusion({f"g{i}": m for i, m in enumerate(matrices)})
    assert_matches_oracle(g)
