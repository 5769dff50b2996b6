"""The integer rate verdicts against the ``Fraction`` verdicts they replaced.

``oracle_rate_verdict`` and ``oracle_max_pairwise_gap`` are
``measures._rate_verdict`` and ``measures._max_pairwise_gap`` as they were
when every rate was a ``Fraction``, kept verbatim apart from the names. The
oracle rates are the textbook ratios of a group's cells, also as
``Fraction``s. Both routes now hand ``_rate_verdict`` each rate as an
integer ``(part, whole)`` pair and compare by cross-multiplication; on every
table and every eps, inf and nan included, each route must return a
``MeasureVerdict`` equal to the oracle's.

The tables are the seeded and hypothesis draws of ``test_jsonable`` (2-4
groups, cells 0-5, so undefined rates occur) and the route-agreement tables
of ``test_acceptance`` (all rates defined, sparse, and a few records beside
10^7-10^9 times as many), plus hand-made ties.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given
from test_acceptance import _random_defined_grouped, _sparse_grouped, _tiny_in_huge_grouped
from test_jsonable import SEEDS, proportional_table, random_table, tables

from fairaudit.confusion import ConfusionMatrix, GroupedConfusion, to_joint
from fairaudit.distributions import EPS_DEFAULT
from fairaudit.errors import PreconditionError
from fairaudit.measures import (
    _COMPONENTS,
    MEASURES,
    MeasureVerdict,
    evaluate_measure,
    measure_via_distribution,
)

# ---------------------------------------------------------------------------
# Oracle: the Fraction-based verdict, verbatim
# ---------------------------------------------------------------------------


def oracle_max_pairwise_gap(
    values: Mapping[str, Fraction],
) -> tuple[Fraction, tuple[str, str]]:
    """Largest |difference| over group pairs, ``max - min``, in one pass.

    The witness is the first maximizing pair in group-pair order: the first
    group holding an extreme value with the first later group holding the
    other extreme, or the first two groups when all values are equal.
    """
    groups = list(values)
    high, low = max(values.values()), min(values.values())
    if high == low:
        return high - low, (groups[0], groups[1])
    first = next(i for i, group in enumerate(groups) if values[group] in (high, low))
    other = low if values[groups[first]] == high else high
    second = next(group for group in groups[first + 1 :] if values[group] == other)
    return high - low, (groups[first], second)


def oracle_rate_verdict(
    measure: str,
    rates: Mapping[str, Mapping[str, Fraction | None]],
    eps: float,
) -> MeasureVerdict:
    """Evaluate a measure from per-group rates keyed by gap label, e.g.
    ``{"ppv_gap": {"p": Fraction(5, 6), "q": Fraction(5, 6)}, ...}``.

    Both routes end here, so they agree whenever they feed it equal rates.
    """
    groups = tuple(next(iter(rates.values())))
    if len(groups) < 2:
        raise PreconditionError(f"fairness measures need at least two groups, got {groups}")
    gaps: dict[str, Fraction | None] = {}
    witnesses: dict[str, tuple[str, str]] = {}
    for label, per_group in rates.items():
        if any(rate is None for rate in per_group.values()):
            gaps[label] = None
            continue
        gaps[label], witnesses[label] = oracle_max_pairwise_gap(per_group)
    if any(gap is None for gap in gaps.values()):
        return MeasureVerdict(measure, None, gaps, None, None, eps)
    winner = max(gaps, key=gaps.__getitem__)  # first label with the largest gap
    disparity = gaps[winner]
    return MeasureVerdict(measure, disparity, gaps, disparity <= eps, witnesses[winner], eps)


def ratio(part: int, whole: int) -> Fraction | None:
    return Fraction(part, whole) if whole else None


ORACLE_RATES = {
    "selection_rate": lambda m: ratio(m.a + m.b, m.a + m.b + m.c + m.d),
    "ppv": lambda m: ratio(m.a, m.a + m.b),
    "npv": lambda m: ratio(m.d, m.c + m.d),
    "fpr": lambda m: ratio(m.b, m.b + m.d),
    "fnr": lambda m: ratio(m.c, m.a + m.c),
}


def oracle_verdict(g: GroupedConfusion, measure: str, eps: float) -> MeasureVerdict:
    rates = {
        label: {group: ORACLE_RATES[rate](m) for group, m in g.matrices.items()}
        for label, rate in _COMPONENTS[measure].items()
    }
    return oracle_rate_verdict(measure, rates, eps)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

NAN = math.nan
FIXED_EPS = (0.0, EPS_DEFAULT, 0.05, math.inf, NAN)


def fields(v: MeasureVerdict) -> list:
    """The verdict's field values; a list compares a nan eps to itself by identity."""
    return list(v)


def assert_matches_oracle(g: GroupedConfusion, eps_values=FIXED_EPS) -> None:
    """Both routes equal the oracle at each eps and at the float of each gap."""
    for m in g.matrices.values():
        for rate, oracle in ORACLE_RATES.items():
            assert getattr(m, rate) == oracle(m)
    j = to_joint(g)
    for measure in MEASURES:
        gaps = oracle_verdict(g, measure, 0.0).component_gaps.values()
        for eps in (*eps_values, *(float(gap) for gap in gaps if gap is not None)):
            expected = fields(oracle_verdict(g, measure, eps))
            assert fields(evaluate_measure(g, measure, eps)) == expected, (g, measure, eps)
            assert fields(measure_via_distribution(j, measure, eps)) == expected, (g, measure)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_tables(seed: int) -> None:
    rng = random.Random(seed)
    assert_matches_oracle(random_table(rng))
    assert_matches_oracle(proportional_table(rng))


@given(tables)
def test_hypothesis_tables(g: GroupedConfusion) -> None:
    assert_matches_oracle(g)


def test_route_agreement_tables() -> None:
    rng = random.Random(8088)
    draws = [_random_defined_grouped(rng) for _ in range(100)]
    draws += [_tiny_in_huge_grouped(rng) for _ in range(50)]
    draws += [_sparse_grouped(rng) for _ in range(100)]
    for g in draws:
        assert_matches_oracle(g, (EPS_DEFAULT,))


def grouped(*cells: tuple[int, int, int, int]) -> GroupedConfusion:
    return GroupedConfusion({f"g{i}": ConfusionMatrix(*m) for i, m in enumerate(cells)})


@pytest.mark.parametrize(
    "g",
    [
        # Zero denominators: no predicted positives, no true positives, both.
        grouped((0, 0, 1, 1), (1, 1, 1, 1)),
        grouped((1, 1, 1, 1), (0, 1, 0, 1)),
        grouped((0, 0, 0, 3), (2, 0, 0, 0), (1, 1, 1, 1)),
        # All rates equal, as unreduced pairs: (2, 4) against (1, 2).
        grouped((1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)),
        # Ties at both extremes: PPV 1/2, 1/3, 2/4, 2/6; NPV 1/2 in every group.
        grouped((1, 1, 1, 1), (1, 2, 2, 2), (2, 2, 2, 2), (2, 4, 3, 3)),
        # The extremes in both orders: PPV low first, FPR high first.
        grouped((1, 3, 2, 2), (3, 1, 2, 2), (1, 3, 2, 2), (3, 1, 2, 2)),
    ],
)
def test_hand_made_tables(g: GroupedConfusion) -> None:
    assert_matches_oracle(g)


def test_eps_at_a_gaps_exact_float_value() -> None:
    # PPV 1/2 against 3/4: the gap 1/4 is a float, so eps = 0.25 holds.
    quarter = grouped((1, 1, 1, 1), (3, 1, 1, 1))
    assert evaluate_measure(quarter, "sufficiency", 0.25).holds is True
    # A gap of 1/3 lies above its nearest float, so eps = float(1/3) fails.
    third = grouped((1, 2, 1, 1), (2, 1, 1, 1))
    assert evaluate_measure(third, "sufficiency").disparity == Fraction(1, 3)
    assert evaluate_measure(third, "sufficiency", float(Fraction(1, 3))).holds is False
    assert_matches_oracle(quarter, (0.25,))
    assert_matches_oracle(third, (float(Fraction(1, 3)),))


def test_infinite_and_nan_eps() -> None:
    g = grouped((1, 1, 1, 1), (3, 1, 1, 1))
    assert evaluate_measure(g, "sufficiency", math.inf).holds is True
    assert evaluate_measure(g, "sufficiency", -math.inf).holds is False
    assert evaluate_measure(g, "sufficiency", NAN).holds is False
    assert_matches_oracle(g, (math.inf, -math.inf, NAN))
