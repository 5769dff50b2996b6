"""Differential and bound tests for the largest pairwise rate gap.

``oracle_max_pairwise_gap`` is the loop over every group pair that the
one-pass ``max - min`` of ``measures.cell_gaps`` replaced, kept verbatim as
the reference. ``max_pairwise_gap`` feeds each rate, an integer
``(part, whole)`` pair, to ``cell_gaps`` as a group's PPV, the cells
``(part, whole - part, 0, 1)``; it must return the identical gap and witness
pair as the oracle does on the same rates as ``Fraction``s.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Mapping

from hypothesis import given
from hypothesis import strategies as st

from fairaudit.confusion import ConfusionMatrix, GroupedConfusion
from fairaudit.measures import SUFFICIENCY, cell_gaps, independence, separation, sufficiency


def oracle_max_pairwise_gap(
    values: Mapping[str, Fraction],
) -> tuple[Fraction, tuple[str, str]]:
    """Largest |difference| over group pairs; first maximizing pair wins."""
    best: Fraction | None = None
    pair: tuple[str, str] | None = None
    for g1, g2 in itertools.combinations(values, 2):
        gap = abs(values[g1] - values[g2])
        if best is None or gap > best:
            best, pair = gap, (g1, g2)
    assert best is not None and pair is not None
    return best, pair


def max_pairwise_gap(rates: Mapping[str, tuple[int, int]]) -> tuple[Fraction, tuple[str, str]]:
    """``cell_gaps`` on ``rates`` as PPVs, as a ``Fraction`` gap and a group pair."""
    groups = list(rates)
    cells = [(part, whole - part, 0, 1) for part, whole in rates.values()]
    part, whole, i, j = cell_gaps(SUFFICIENCY, cells)["ppv_gap"]
    return Fraction(part, whole), (groups[i], groups[j])


def assert_matches_oracle(pairs: Mapping[str, tuple[int, int]]) -> None:
    gap, pair = max_pairwise_gap(pairs)
    expected_gap, expected_pair = oracle_max_pairwise_gap(
        {group: Fraction(*rate) for group, rate in pairs.items()}
    )
    assert (gap, pair) == (expected_gap, expected_pair)
    assert type(gap) is type(expected_gap)


def test_seeded_tie_heavy_maps_match_the_oracle():
    rng = random.Random(41)
    for _ in range(3000):
        groups = [f"g{i}" for i in range(rng.randint(2, 8))]
        denominator = rng.choice((1, 2, 3, 8))
        pairs = [(rng.randint(0, denominator), denominator) for _ in groups]
        assert_matches_oracle(dict(zip(groups, pairs)))
        # Unreduced pairs: equal rates with different wholes tie.
        scales = [rng.randint(1, 3) for _ in groups]
        assert_matches_oracle({g: (k * p, k * w) for g, k, (p, w) in zip(groups, scales, pairs)})


RATE = st.fractions(min_value=0, max_value=1, max_denominator=4)


@given(st.lists(RATE, min_size=2, max_size=8))
def test_hypothesis_maps_match_the_oracle(rates):
    assert_matches_oracle(
        {f"g{i}": (rate.numerator, rate.denominator) for i, rate in enumerate(rates)}
    )


def test_all_equal_rates_name_the_first_two_groups():
    assert max_pairwise_gap({"c": (1, 2), "a": (2, 4), "b": (3, 6)}) == (0, ("c", "a"))


def test_three_measures_on_two_thousand_groups_stay_fast():
    # The pairwise loop took about 43 s for the three measures here.
    rng = random.Random(2000)
    g = GroupedConfusion(
        {
            f"g{i}": ConfusionMatrix(*(rng.randint(1, 50) for _ in range(4)))
            for i in range(2000)
        }
    )
    start = time.perf_counter()
    verdicts = [measure(g) for measure in (independence, sufficiency, separation)]
    assert time.perf_counter() - start < 5.0
    for verdict in verdicts:
        first, second = verdict.witnesses
        assert verdict.holds is False and first != second
