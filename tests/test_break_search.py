"""Differential and bound tests for the break search.

``oracle_candidate_increments`` is the filter-over-``budget^m`` enumerator
that ``conservativeness._candidate_increments`` replaced, and
``oracle_find_break`` the search that built and measured every candidate's
``Increment`` and ``GroupedConfusion``; both are kept verbatim apart from the
names. The bounded-composition enumerator must yield the identical sequence
of increments, and ``find_break``, which decides each candidate on its
shifted cells, the identical witness or precondition error at every eps
tested: 0, 1e-9, 0.02, 0.05, inf, nan and the float value of each component
gap of the input.

Two anchors pin the search's order for any branch and bound that replaces
it: on 1,500 groups the witness is the second candidate, so the walk over
groups may not recurse once per group, and on the walking input at eps 0.004
the witness is the 1,322nd increment, so no bound may prune a subtree that
holds an earlier one.
"""

import collections
import itertools
import math
import random
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import conservativeness
from fairaudit.confusion import ConfusionMatrix, GroupedConfusion
from fairaudit.conservativeness import (
    DIRECTIONS,
    FN_TO_TP,
    FP_TO_TN,
    BreakWitness,
    GroupShift,
    Increment,
    _bounded_compositions,
    _candidate_increments,
    apply_increment,
    find_break,
)
from fairaudit.distributions import EPS_DEFAULT
from fairaudit.errors import PreconditionError
from fairaudit.measures import SEPARATION, SUFFICIENCY, separation, sufficiency

EPS_VALUES = (0.0, 1e-9, 0.02, 0.05, math.inf, math.nan)


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


def oracle_find_break(
    g: GroupedConfusion, eps: float = EPS_DEFAULT, budget: int = 2
) -> BreakWitness | None:
    """Search for an accuracy increment that breaks sufficiency or separation.

    Requires both measures to hold on the input. Candidates shift at least
    one record in every group (so accuracy rises in each group, mirroring the
    construction the measures are known to be vulnerable to) and are
    enumerated deterministically; the first breaking increment is returned,
    or ``None`` when no feasible increment within ``budget`` breaks either
    measure.
    """
    failing = [
        verdict.measure
        for verdict in (sufficiency(g, eps), separation(g, eps))
        if verdict.holds is not True
    ]
    if failing:
        raise PreconditionError(
            f"measures must hold before searching: {', '.join(failing)} did not"
        )
    for increment in oracle_candidate_increments(g, budget):
        after = apply_increment(g, increment)
        suff_after = sufficiency(after, eps)
        sep_after = separation(after, eps)
        broken = tuple(
            name
            for name, verdict in ((SUFFICIENCY, suff_after), (SEPARATION, sep_after))
            if verdict.holds is False
        )
        if broken:
            deltas = {
                group: after[group].accuracy - g[group].accuracy for group in g.groups
            }
            return BreakWitness(
                increment=increment,
                before=g,
                after=after,
                accuracy_delta=deltas,
                broken=broken,
                sufficiency_after=suff_after,
                separation_after=sep_after,
            )
    return None


def candidate_increments(g: GroupedConfusion, budget: int) -> list[Increment]:
    """``_candidate_increments``' counts and directions as increments."""
    return [
        Increment(map(GroupShift, g.groups, directions, counts))
        for counts, directions in _candidate_increments(g, budget)
    ]


def eps_values(g: GroupedConfusion) -> tuple[float, ...]:
    """``EPS_VALUES`` and the float value of each component gap of ``g``'s
    sufficiency and separation that is defined."""
    try:
        verdicts = (sufficiency(g), separation(g))
    except PreconditionError:  # a single group has no gaps
        return EPS_VALUES
    gaps = (gap for verdict in verdicts for gap in verdict.component_gaps.values())
    return EPS_VALUES + tuple(float(gap) for gap in gaps if gap is not None)


def outcome(search, g: GroupedConfusion, eps: float, budget: int):
    """The search's witness (or ``None``), or the ``PreconditionError`` it raised."""
    try:
        return search(g, eps, budget)
    except PreconditionError as exc:
        return str(exc)


def assert_same_search(g: GroupedConfusion, budget: int) -> None:
    assert candidate_increments(g, budget) == list(oracle_candidate_increments(g, budget))
    for eps in eps_values(g):
        assert outcome(find_break, g, eps, budget) == outcome(oracle_find_break, g, eps, budget)


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

    # An example runs the search and its oracle, which can pass hypothesis's
    # 200 ms default deadline on a loaded machine; this test checks answers,
    # the benchmark times the search.
    @settings(deadline=None)
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
        candidates = candidate_increments(self.GROUPS, budget)
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

    def test_a_rejected_candidate_builds_nothing(self, monkeypatch):
        # Three groups whose 9,120 feasible increments at budget 20 break
        # nothing at eps 0.02: the search walks them all and returns None
        # without building an increment's matrices or applying it.
        g = GroupedConfusion({f"g{i}": ConfusionMatrix(2000, 300, 300, 2000) for i in range(3)})
        assert sum(1 for _ in _candidate_increments(g, 20)) == 9120
        calls = collections.Counter()

        def counted(name, fn):
            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counting

        apply, new = conservativeness.apply_increment, ConfusionMatrix.__new__
        monkeypatch.setattr(conservativeness, "apply_increment", counted("apply", apply))
        monkeypatch.setattr(ConfusionMatrix, "__new__", staticmethod(counted("matrix", new)))
        assert find_break(g, 0.02, 20) is None
        assert calls == {}


class TestAnchors:
    WALKING = GroupedConfusion({f"g{i}": ConfusionMatrix(2000, 300, 300, 2000) for i in range(3)})

    def test_second_candidate_of_1500_groups(self):
        # Every group shifts one record: all FN->TP keeps the groups identical,
        # and the next candidate turns only the last group's shift to FP->TN.
        groups = [f"g{i}" for i in range(1500)]
        g = GroupedConfusion({group: ConfusionMatrix(2, 1, 1, 2) for group in groups})
        witness = find_break(g, 0.0, 1500)
        directions = [FN_TO_TP] * 1499 + [FP_TO_TN]
        assert witness.increment == Increment(map(GroupShift, groups, directions, [1] * 1500))
        assert witness.broken == (SUFFICIENCY, SEPARATION)

    def test_walking_input_breaks_at_the_1322nd_increment(self):
        counts, directions = (1, 1, 10), (FN_TO_TP, FN_TO_TP, FP_TO_TN)
        witness = find_break(self.WALKING, 0.004, 30)
        assert witness == oracle_find_break(self.WALKING, 0.004, 30)
        shifts = map(GroupShift, self.WALKING.groups, directions, counts)
        assert witness.increment == Increment(shifts)
        assert witness.broken == (SEPARATION,)
        # The enumerator yields each increment once, so this is its first time.
        walked = itertools.islice(_candidate_increments(self.WALKING, 30), 1321, None)
        assert next(walked) == (counts, directions)
