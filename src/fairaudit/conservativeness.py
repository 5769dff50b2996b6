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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .confusion import NEG, POS, ConfusionMatrix, GroupedConfusion, is_positive
from .distributions import EPS_DEFAULT
from .errors import InputError, PreconditionError
from .measures import (
    SEPARATION,
    SUFFICIENCY,
    MeasureVerdict,
    independence,
    separation,
    sufficiency,
)

FN_TO_TP = "fn_to_tp"
FP_TO_TN = "fp_to_tn"
DIRECTIONS = (FN_TO_TP, FP_TO_TN)


@dataclass(frozen=True)
class GroupShift:
    """Move ``count`` records of one group from a false cell to the matching
    true cell (FN to TP, or FP to TN)."""

    group: str
    direction: str
    count: int

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if not isinstance(self.count, int) or self.count < 0:
            raise InputError(f"shift count must be a nonnegative integer, got {self.count!r}")


@dataclass(frozen=True)
class Increment:
    """An accuracy-increasing move: per-group error-cell shifts, at least one
    of them positive."""

    shifts: tuple[GroupShift, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shifts", tuple(self.shifts))
        groups = [shift.group for shift in self.shifts]
        if len(set(groups)) != len(groups):
            raise InputError(f"increment repeats a group: {groups}")
        if not any(shift.count > 0 for shift in self.shifts):
            raise InputError("increment must shift at least one record")

    @property
    def total(self) -> int:
        return sum(shift.count for shift in self.shifts)


@dataclass(frozen=True)
class ConservativenessReport:
    """Prop-style report for a perfect predictor: sufficiency and separation
    must hold, while independence may still fail and is reported alongside."""

    sufficiency: MeasureVerdict
    separation: MeasureVerdict
    independence: MeasureVerdict
    holds: bool


@dataclass(frozen=True)
class JointIndependenceVerdict:
    """Both sides of the equivalence on positive tables:
    (sufficiency and separation)  iff  A independent of the (Y, R) pair."""

    suff_and_sep: bool
    joint_independent: bool
    equivalent: bool
    ci_deviation: Fraction
    sufficiency: MeasureVerdict
    separation: MeasureVerdict
    eps: float


@dataclass(frozen=True)
class BreakWitness:
    """An increment that strictly increases accuracy in every shifted group
    yet breaks measures that held before."""

    increment: Increment
    before: GroupedConfusion
    after: GroupedConfusion
    accuracy_delta: Mapping[str, Fraction]
    broken: tuple[str, ...]
    sufficiency_after: MeasureVerdict
    separation_after: MeasureVerdict

    def __post_init__(self) -> None:
        object.__setattr__(self, "accuracy_delta", dict(self.accuracy_delta))
        object.__setattr__(self, "broken", tuple(self.broken))


@dataclass(frozen=True)
class ProportionalPreservationReport:
    """Result of applying FN-to-TP shifts proportional to group multipliers."""

    multipliers: Mapping[str, int]
    increment: Increment
    after: GroupedConfusion
    sufficiency: MeasureVerdict
    separation: MeasureVerdict
    preserved: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "multipliers", dict(self.multipliers))


# ---------------------------------------------------------------------------
# Perfect predictors
# ---------------------------------------------------------------------------


def is_perfect(g: GroupedConfusion) -> bool:
    """True iff predictions agree with the true label everywhere (b = c = 0)."""
    return all(m.b == 0 and m.c == 0 for m in g.matrices.values())


def check_conservativeness(
    g: GroupedConfusion, eps: float = EPS_DEFAULT
) -> ConservativenessReport:
    """On a perfect predictor, assert that sufficiency and separation hold.

    NOT-COMPARABLE verdicts (from empty rate denominators) count as holding,
    since no gap exists. Independence carries no such guarantee; its verdict
    is reported alongside to illustrate that a perfect predictor is in
    general incompatible with it.
    """
    if not is_perfect(g):
        raise PreconditionError("predictor is not perfect: false cells present")
    suff = sufficiency(g, eps)
    sep = separation(g, eps)
    ind = independence(g, eps)
    holds = suff.holds is not False and sep.holds is not False
    return ConservativenessReport(suff, sep, ind, holds)


# ---------------------------------------------------------------------------
# Sufficiency + separation vs joint independence (positive tables)
# ---------------------------------------------------------------------------


def _joint_independence_deviation(g: GroupedConfusion) -> Fraction:
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


def check_joint_independence_iff(
    g: GroupedConfusion, eps: float = EPS_DEFAULT
) -> JointIndependenceVerdict:
    """On a strictly positive table, verify that sufficiency and separation
    hold together iff A is independent of the joint (Y, R) pair.

    The independence side is evaluated exactly from integer counts, so the
    two sides are compared as boolean verdicts at ``eps`` without any scale
    mismatch between rate gaps and probability deviations.
    """
    if not is_positive(g):
        raise PreconditionError(
            "joint-independence equivalence requires strictly positive cells"
        )
    suff = sufficiency(g, eps)
    sep = separation(g, eps)
    suff_and_sep = bool(suff.holds) and bool(sep.holds)
    deviation = _joint_independence_deviation(g)
    joint_independent = deviation <= eps
    return JointIndependenceVerdict(
        suff_and_sep=suff_and_sep,
        joint_independent=joint_independent,
        equivalent=suff_and_sep == joint_independent,
        ci_deviation=deviation,
        sufficiency=suff,
        separation=sep,
        eps=eps,
    )


# ---------------------------------------------------------------------------
# Increments
# ---------------------------------------------------------------------------


def apply_increment(g: GroupedConfusion, inc: Increment) -> GroupedConfusion:
    """Shift error-cell records to the matching true cell per group.

    FN to TP moves k from c to a; FP to TN moves k from b to d. Group sizes
    never change and accuracy strictly increases in every shifted group.
    """
    updated = dict(g.matrices)
    for shift in inc.shifts:
        m = g[shift.group]
        if shift.count == 0:
            continue
        if shift.direction == FN_TO_TP:
            if shift.count > m.c:
                raise InputError(
                    f"group {shift.group!r}: cannot shift {shift.count} of {m.c} false negatives"
                )
            updated[shift.group] = ConfusionMatrix(m.a + shift.count, m.b, m.c - shift.count, m.d)
        else:
            if shift.count > m.b:
                raise InputError(
                    f"group {shift.group!r}: cannot shift {shift.count} of {m.b} false positives"
                )
            updated[shift.group] = ConfusionMatrix(m.a, m.b - shift.count, m.c, m.d + shift.count)
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


def _candidate_increments(g: GroupedConfusion, budget: int) -> Iterator[Increment]:
    """Feasible increments that shift every group, in deterministic order:
    smallest total shift first, then count vectors in lexicographic order by
    group, then FN-to-TP before FP-to-TN per group.

    A group's count can be at most ``max(b, c)``, its cap: a larger count
    has no feasible direction. Only count vectors within the caps are
    generated, so the cost follows the feasible candidates, not budget^m,
    and totals above the sum of the caps are never visited.
    """
    groups = g.groups
    matrices = [g[group] for group in groups]
    caps = tuple(max(m.b, m.c) for m in matrices)
    for total in range(len(caps), min(budget, sum(caps)) + 1):
        for counts in _bounded_compositions(total, caps):
            choices = [
                [
                    GroupShift(group, direction, count)
                    for direction, source in ((FN_TO_TP, m.c), (FP_TO_TN, m.b))
                    if count <= source
                ]
                for group, m, count in zip(groups, matrices, counts)
            ]
            for shifts in itertools.product(*choices):
                yield Increment(shifts)


def find_break(
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
    for increment in _candidate_increments(g, budget):
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


def group_multipliers(g: GroupedConfusion) -> dict[str, int] | None:
    """Integer multipliers relative to the smallest group, or ``None`` when
    the matrices are not exact multiples of a common base."""
    base_group = min(g.groups, key=lambda group: (g[group].n, g.groups.index(group)))
    base = g[base_group]
    multipliers: dict[str, int] = {}
    for group in g.groups:
        m = g[group]
        if m.n % base.n:
            return None
        k = m.n // base.n
        if (m.a, m.b, m.c, m.d) != (base.a * k, base.b * k, base.c * k, base.d * k):
            return None
        multipliers[group] = k
    return multipliers


def check_proportional_preservation(
    g: GroupedConfusion, unit: int = 1, eps: float = EPS_DEFAULT
) -> ProportionalPreservationReport:
    """Shift FN to TP in proportion to group size and verify that sufficiency
    and separation survive with zero disparity.

    Requires the group matrices to be exact integer multiples of a common
    base, and the base to have at least ``unit`` false negatives so the
    proportional shifts are feasible.
    """
    if unit < 1:
        raise InputError("unit shift must be a positive integer")
    multipliers = group_multipliers(g)
    if multipliers is None:
        raise PreconditionError("group matrices are not integer multiples of a base matrix")
    base_group = min(multipliers, key=multipliers.get)  # type: ignore[arg-type]
    if g[base_group].c < unit * multipliers[base_group]:
        raise PreconditionError(
            f"base group {base_group!r} has too few false negatives for unit={unit}"
        )
    increment = Increment(
        tuple(GroupShift(group, FN_TO_TP, unit * k) for group, k in multipliers.items())
    )
    after = apply_increment(g, increment)
    suff = sufficiency(after, eps)
    sep = separation(after, eps)
    preserved = suff.disparity == 0 and sep.disparity == 0
    return ProportionalPreservationReport(
        multipliers=multipliers,
        increment=increment,
        after=after,
        sufficiency=suff,
        separation=sep,
        preserved=preserved,
    )
