"""Conservativeness checks and the accuracy-increment counterexample search.

A perfect predictor (no false cells) always satisfies sufficiency and
separation, and on strictly positive tables the two hold together exactly
when the group variable is independent of the joint label/prediction pair.
Neither guarantee survives accuracy increments: :func:`find_break` searches
for error-reducing shifts that raise accuracy in every group yet break
sufficiency or separation, and :func:`check_proportional_preservation`
verifies the one increment family that provably cannot break them.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .confusion import ConfusionMatrix, GroupedConfusion, is_positive, to_joint
from .distributions import EPS_DEFAULT, ci_deviation, within
from .errors import InputError, PreconditionError
from .measures import (  # independence stays bound for perfbench/replay.py
    SEPARATION,
    SUFFICIENCY,
    MeasureVerdict,
    cells_hold,
    independence,
    require_two_groups,
    separation,
    sufficiency,
)

FN_TO_TP = "fn_to_tp"
FP_TO_TN = "fp_to_tn"
DIRECTIONS = (FN_TO_TP, FP_TO_TN)


class GroupShift(namedtuple("GroupShift", "group direction count")):
    """Move ``count`` records of one group from a false cell to the matching
    true cell (FN to TP, or FP to TN)."""

    __slots__ = ()

    def __new__(cls, group: str, direction: str, count: int) -> GroupShift:
        if direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InputError(f"shift count must be a nonnegative integer, got {count!r}")
        return super().__new__(cls, group, direction, count)


class Increment(namedtuple("Increment", "shifts")):
    """An accuracy-increasing move: per-group error-cell shifts, at least one
    of them positive."""

    __slots__ = ()

    def __new__(cls, shifts: Iterable[GroupShift]) -> Increment:
        shifts = tuple(shifts)
        groups = [shift.group for shift in shifts]
        if len(set(groups)) != len(groups):
            raise InputError(f"increment repeats a group: {groups}")
        if not any(shift.count > 0 for shift in shifts):
            raise InputError("increment must shift at least one record")
        return super().__new__(cls, shifts)


class JointIndependenceVerdict(NamedTuple):
    """Both sides of the equivalence on positive tables:
    (sufficiency and separation)  iff  A independent of the (Y, R) pair."""

    suff_and_sep: bool
    joint_independent: bool
    equivalent: bool
    ci_deviation: Fraction


class BreakWitness(NamedTuple):
    """An increment that strictly increases accuracy in every shifted group
    yet breaks measures that held before; its fields are kept as given."""

    increment: Increment
    before: GroupedConfusion
    after: GroupedConfusion
    accuracy_delta: Mapping[str, Fraction]
    broken: tuple[str, ...]
    sufficiency_after: MeasureVerdict
    separation_after: MeasureVerdict


class ProportionalPreservationReport(NamedTuple):
    """Result of FN-to-TP shifts proportional to group multipliers, kept as given."""

    multipliers: Mapping[str, int]
    increment: Increment
    after: GroupedConfusion
    sufficiency: MeasureVerdict
    separation: MeasureVerdict
    preserved: bool


# ---------------------------------------------------------------------------
# Perfect predictors
# ---------------------------------------------------------------------------


def is_perfect(g: GroupedConfusion) -> bool:
    """True iff predictions agree with the true label everywhere (b = c = 0)."""
    return all(m.b == 0 and m.c == 0 for m in g.matrices.values())


def perfect_predictor_holds(g: GroupedConfusion, eps: float = EPS_DEFAULT) -> bool:
    """Whether sufficiency and separation hold on the perfect predictor ``g``,
    a NOT-COMPARABLE measure (an empty rate denominator) counting as holding
    since no gap exists. Each is decided by ``cells_hold`` on the integer
    cells: no verdict is built. A table that is not perfect is refused, and
    so is one with fewer than two groups, as the measures refuse it."""
    if not is_perfect(g):
        raise PreconditionError("predictor is not perfect: false cells present")
    require_two_groups(g.groups)
    cells = g.matrices.values()
    return all(cells_hold(m, cells, eps) is not False for m in (SUFFICIENCY, SEPARATION))


# ---------------------------------------------------------------------------
# Sufficiency + separation vs joint independence (positive tables)
# ---------------------------------------------------------------------------


def check_joint_independence_iff(
    g: GroupedConfusion, eps: float = EPS_DEFAULT
) -> JointIndependenceVerdict:
    """On a strictly positive table, verify that sufficiency and separation
    hold together iff A is independent of the joint (Y, R) pair.

    Sufficiency and separation are decided by ``cells_hold`` on the cells'
    integer gaps, and independence by the exact ``ci_deviation`` of A from the
    fused (Y, R) variable on the count joint of ``g``: nothing is rounded.
    """
    if not is_positive(g):
        raise PreconditionError(
            "joint-independence equivalence requires strictly positive cells"
        )
    require_two_groups(g.groups)
    suff_and_sep = all(cells_hold(m, g.matrices.values(), eps) for m in (SUFFICIENCY, SEPARATION))
    deviation = ci_deviation(to_joint(g), "A", ("Y", "R"))
    joint_independent = within(deviation.numerator, deviation.denominator, eps)
    return JointIndependenceVerdict(
        suff_and_sep=suff_and_sep,
        joint_independent=joint_independent,
        equivalent=suff_and_sep == joint_independent,
        ci_deviation=deviation,
    )


# ---------------------------------------------------------------------------
# Increments
# ---------------------------------------------------------------------------


def _shifted(m: Sequence[int], direction: str, count: int) -> tuple[int, int, int, int]:
    """Cells ``(a, b, c, d)`` after moving ``count`` records of a group:
    FN to TP moves them from c to a, FP to TN from b to d."""
    a, b, c, d = m
    return (a + count, b, c - count, d) if direction == FN_TO_TP else (a, b - count, c, d + count)


def apply_increment(g: GroupedConfusion, inc: Increment) -> GroupedConfusion:
    """Shift error-cell records to the matching true cell per group.

    Group sizes never change and accuracy strictly increases in every
    shifted group.
    """
    updated = dict(g.matrices)
    for group, direction, count in inc.shifts:
        m = g[group]
        source, kind = (m.c, "negatives") if direction == FN_TO_TP else (m.b, "positives")
        if count > source:
            raise InputError(f"group {group!r}: cannot shift {count} of {source} false {kind}")
        updated[group] = ConfusionMatrix(*_shifted(m, direction, count))
    return GroupedConfusion(updated, g.empty_groups)


def _bounded_compositions(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into ``len(caps)`` parts with
    ``1 <= part i <= caps[i]``, in lexicographic order.

    ``room[i]`` is the most the parts from ``i`` on can hold. Every suffix is
    filled with its smallest parts that fit in the room after them, and each
    step raises the rightmost part whose suffix can give up one, so with
    every cap at least 1 no step is wasted and the cost follows the output.
    """
    m = len(caps)
    room = [0] * (m + 1)
    for i in reversed(range(m)):
        room[i] = room[i + 1] + caps[i]
    if min(caps) < 1 or not m <= total <= room[0]:
        return
    parts = [0] * m

    def fill(start: int, remaining: int) -> None:
        for j in range(start, m):
            parts[j] = max(1, remaining - room[j + 1])
            remaining -= parts[j]

    fill(0, total)
    while True:
        yield tuple(parts)
        suffix = parts[-1]
        for i in reversed(range(m - 1)):
            if parts[i] < caps[i] and suffix > m - 1 - i:
                parts[i] += 1
                fill(i + 1, suffix - 1)
                break
            suffix += parts[i]
        else:
            return


def _candidate_increments(
    g: GroupedConfusion, budget: int
) -> Iterator[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Feasible increments that shift every group, as their counts and
    directions in group order, in deterministic order: smallest total shift
    first, then count vectors in lexicographic order by group, then FN-to-TP
    before FP-to-TN per group.

    A group's count can be at most ``max(b, c)``, its cap: a larger count
    has no feasible direction. Only count vectors within the caps are
    generated, so the cost follows the feasible candidates, not budget^m,
    and totals above the sum of the caps are never visited.
    """
    matrices = list(g.matrices.values())
    caps = tuple(max(m.b, m.c) for m in matrices)
    for total in range(len(caps), min(budget, sum(caps)) + 1):
        for counts in _bounded_compositions(total, caps):
            choices = [
                [way for way, source in ((FN_TO_TP, m.c), (FP_TO_TN, m.b)) if count <= source]
                for m, count in zip(matrices, counts)
            ]
            for directions in itertools.product(*choices):
                yield counts, directions


def find_break(
    g: GroupedConfusion, eps: float = EPS_DEFAULT, budget: int = 2
) -> BreakWitness | None:
    """Search for an accuracy increment that breaks sufficiency or separation.

    Requires both measures to hold on the input. Candidates shift at least
    one record in every group (so accuracy rises in each group, mirroring the
    construction the measures are known to be vulnerable to) and are
    enumerated deterministically; the first breaking increment is returned,
    or ``None`` when no feasible increment within ``budget`` breaks either
    measure. Each candidate is decided on its shifted cells, and only the
    first breaking one is built into a witness.
    """
    require_two_groups(g.groups)
    matrices = list(g.matrices.values())
    failing = [m for m in (SUFFICIENCY, SEPARATION) if cells_hold(m, matrices, eps) is not True]
    if failing:
        raise PreconditionError(
            f"measures must hold before searching: {', '.join(failing)} did not"
        )
    for counts, directions in _candidate_increments(g, budget):
        cells = list(map(_shifted, matrices, directions, counts))
        broken = tuple(
            name for name in (SUFFICIENCY, SEPARATION) if cells_hold(name, cells, eps) is False
        )
        if broken:
            increment = Increment(map(GroupShift, g.groups, directions, counts))
            after = apply_increment(g, increment)
            deltas = {
                group: after[group].accuracy - g[group].accuracy for group in g.groups
            }
            return BreakWitness(
                increment=increment,
                before=g,
                after=after,
                accuracy_delta=deltas,
                broken=broken,
                sufficiency_after=sufficiency(after, eps),
                separation_after=separation(after, eps),
            )
    return None


def group_multipliers(g: GroupedConfusion) -> dict[str, int] | None:
    """Integer multipliers relative to the smallest group, or ``None`` when
    the matrices are not exact multiples of a common base."""
    base_group = min(g.groups, key=lambda group: g[group].n)  # first smallest in order
    base = g[base_group]
    multipliers: dict[str, int] = {}
    for group in g.groups:
        m = g[group]
        if m.n % base.n:
            return None
        k = m.n // base.n
        if m != base.scaled(k):
            return None
        multipliers[group] = k
    return multipliers


def check_proportional_preservation(
    g: GroupedConfusion, eps: float = EPS_DEFAULT
) -> ProportionalPreservationReport:
    """Shift FN to TP in proportion to group size (k records in a group with
    multiplier k) and verify that neither sufficiency nor separation fails. As
    in :func:`perfect_predictor_holds`, a NOT-COMPARABLE measure survives: the
    shift left one of its rates undefined in every group.

    Requires the group matrices to be exact integer multiples of a common
    base, and the base to have a false negative so the proportional shifts
    are feasible.
    """
    multipliers = group_multipliers(g)
    if multipliers is None:
        raise PreconditionError("group matrices are not integer multiples of a base matrix")
    base_group = min(multipliers, key=multipliers.get)  # type: ignore[arg-type]
    if g[base_group].c < multipliers[base_group]:
        raise PreconditionError(f"base group {base_group!r} has too few false negatives")
    increment = Increment(
        tuple(GroupShift(group, FN_TO_TP, k) for group, k in multipliers.items())
    )
    after = apply_increment(g, increment)
    suff = sufficiency(after, eps)
    sep = separation(after, eps)
    preserved = suff.holds is not False and sep.holds is not False
    return ProportionalPreservationReport(
        multipliers=multipliers,
        increment=increment,
        after=after,
        sufficiency=suff,
        separation=sep,
        preserved=preserved,
    )
