"""Differential tests for the joint-independence check.

``oracle_joint_independence_deviation`` is the integer cross-multiplication
on counts that ``check_joint_independence_iff`` used before it called the
general kernel ``ci_deviation`` on the count joint, kept verbatim as the
reference: both must give the identical ``Fraction``. The count joint itself
must equal the public constructor's joint on its parts.

``oracle_check_joint_independence_iff`` is the check as it was when it built
a sufficiency and a separation verdict to read their ``holds``; the check now
reads the integer cell gaps through ``cells_hold``. On every table drawn here
and at every eps, nan and inf included, both must return the same verdict or
raise the same precondition error with the same message.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from joint_oracle import assert_revalidates
from test_jsonable import SEEDS, proportional_table, random_table, tables

from fairaudit.confusion import NEG, POS, ConfusionMatrix, GroupedConfusion, is_positive, to_joint
from fairaudit.conservativeness import JointIndependenceVerdict, check_joint_independence_iff
from fairaudit.distributions import EPS_DEFAULT, ci_deviation, within
from fairaudit.errors import PreconditionError
from fairaudit.generators import (
    random_nonproportional_grouped,
    random_positive_grouped,
    random_proportional_grouped,
)
from fairaudit.measures import separation, sufficiency

EPS_VALUES = (0.0, 1e-9, 0.05, math.inf, math.nan)


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


def oracle_check_joint_independence_iff(
    g: GroupedConfusion, eps: float = EPS_DEFAULT
) -> JointIndependenceVerdict:
    if not is_positive(g):
        raise PreconditionError(
            "joint-independence equivalence requires strictly positive cells"
        )
    suff_and_sep = bool(sufficiency(g, eps).holds) and bool(separation(g, eps).holds)
    deviation = ci_deviation(to_joint(g), "A", ("Y", "R"))
    joint_independent = within(deviation.numerator, deviation.denominator, eps)
    return JointIndependenceVerdict(
        suff_and_sep=suff_and_sep,
        joint_independent=joint_independent,
        equivalent=suff_and_sep == joint_independent,
        ci_deviation=deviation,
    )


def _outcome(check, g: GroupedConfusion, eps: float):
    try:
        return check(g, eps)
    except PreconditionError as error:
        return type(error), str(error)


def assert_same_verdicts(g: GroupedConfusion) -> None:
    """The check and its verdict-based oracle agree on ``g`` at every eps."""
    for eps in EPS_VALUES:
        got = _outcome(check_joint_independence_iff, g, eps)
        assert got == _outcome(oracle_check_joint_independence_iff, g, eps), (g, eps)
        if isinstance(got, JointIndependenceVerdict):
            assert type(got.suff_and_sep) is type(got.joint_independent) is bool


def assert_matches_oracle(g: GroupedConfusion) -> None:
    assert_revalidates(to_joint(g))
    deviation = check_joint_independence_iff(g).ci_deviation
    assert isinstance(deviation, Fraction)
    assert deviation == oracle_joint_independence_deviation(g)
    assert_same_verdicts(g)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_small_cell_tables_match_the_verdict_oracle(seed):
    # Cells 1..5 make equal rates, and so gaps of exactly 0, common.
    rng = random.Random(seed)
    for g in (random_table(rng, 1), proportional_table(rng, 1), random_table(rng)):
        assert_same_verdicts(g)


@given(tables)
def test_hypothesis_small_cell_tables_match_the_verdict_oracle(g):
    # Cells 0..5: tables with a zero cell must raise the positivity error.
    assert_same_verdicts(g)


def test_sufficiency_without_separation_matches_the_verdict_oracle():
    g = GroupedConfusion({"p": ConfusionMatrix(2, 1, 1, 2), "q": ConfusionMatrix(4, 2, 1, 2)})
    assert_same_verdicts(g)
    assert check_joint_independence_iff(g, 0.0).suff_and_sep is False
    assert check_joint_independence_iff(g, 0.2).suff_and_sep is True


@pytest.mark.parametrize(
    "cells, message",
    [
        ((1, 2, 3, 4), "fairness measures need at least two groups, got ('g0',)"),
        ((1, 2, 0, 4), "joint-independence equivalence requires strictly positive cells"),
    ],
    ids=["one-positive-group", "one-group-with-a-zero-cell"],
)
def test_one_group_raises_the_oracles_precondition_error(cells, message):
    g = GroupedConfusion({"g0": ConfusionMatrix(*cells)})
    for check in (check_joint_independence_iff, oracle_check_joint_independence_iff):
        for eps in EPS_VALUES:
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                check(g, eps)
