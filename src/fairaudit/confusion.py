"""Confusion matrices, their statistics, and conversions to datasets/joints.

Counts stay integers and every statistic is an exact :class:`~fractions.Fraction`,
so rate identities can be asserted without floating-point slack. A statistic
whose denominator is zero is ``None`` (undefined), never 0 or NaN; fairness
comparisons downstream turn undefined constituents into NOT-COMPARABLE
verdicts instead of silently passing.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from numbers import Real
from typing import Iterable, Mapping, NamedTuple, Sequence

from .distributions import FiniteJoint
from .errors import InputError

#: Canonical labels for the binary categories, and the label of each truth value.
POS = "+"
NEG = "-"
LABEL = {True: POS, False: NEG}

#: ``(y, r)`` of the cells a=TP, b=FP, c=FN, d=TN, in that order.
CELLS = ((True, True), (False, True), (True, False), (False, False))

#: Each rate as ``(part, whole)``, two sums of the cells a, b, c, d; undefined at whole 0.
RATES = {
    "selection_rate": lambda a, b, c, d: (a + b, a + b + c + d),
    "ppv": lambda a, b, c, d: (a, a + b),
    "npv": lambda a, b, c, d: (d, c + d),
    "fpr": lambda a, b, c, d: (b, b + d),
    "fnr": lambda a, b, c, d: (c, a + c),
}


class ConfusionMatrix(namedtuple("ConfusionMatrix", "a b c d")):
    """2x2 count table for one group: a=TP, b=FP, c=FN, d=TN."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> ConfusionMatrix:
        for name, value in zip("abcd", (a, b, c, d)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InputError(f"cell {name} must be a nonnegative integer, got {value!r}")
        if a + b + c + d < 1:
            raise InputError("confusion matrix must count at least one record")
        return super().__new__(cls, a, b, c, d)

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def accuracy(self) -> Fraction:
        return Fraction(self.a + self.d, self.n)

    def _rate(self, name: str) -> Fraction | None:
        part, whole = RATES[name](*self)
        return Fraction(part, whole) if whole else None

    @property
    def ppv(self) -> Fraction | None:
        return self._rate("ppv")

    @property
    def npv(self) -> Fraction | None:
        return self._rate("npv")

    @property
    def fpr(self) -> Fraction | None:
        return self._rate("fpr")

    @property
    def fnr(self) -> Fraction | None:
        return self._rate("fnr")

    def scaled(self, k: int) -> ConfusionMatrix:
        """Every cell times ``k``: kept for ``group_multipliers`` (acceptance criterion 5)."""
        if k < 1:
            raise InputError("scale factor must be a positive integer")
        return ConfusionMatrix(self.a * k, self.b * k, self.c * k, self.d * k)


class GroupedConfusion(namedtuple("GroupedConfusion", "matrices empty_groups")):
    """One confusion matrix per group, in a fixed group order.

    ``empty_groups`` records declared groups that were dropped by
    :func:`tabulate` for having no records. Fairness measures require at
    least two populated groups; a single-group table is representable so the
    drop-with-warning path stays usable. ``g[group]`` looks a matrix up by
    group label, never by position. The constructor checks that every value is
    a :class:`ConfusionMatrix` and that each empty group is unique and holds no matrix.
    """

    __slots__ = ()

    def __new__(
        cls, matrices: Mapping[str, ConfusionMatrix], empty_groups: Iterable[str] = ()
    ) -> GroupedConfusion:
        matrices, empty_groups = dict(matrices), tuple(empty_groups)
        if not matrices:
            raise InputError("at least one group is required")
        for group, m in matrices.items():
            if not isinstance(m, ConfusionMatrix):
                raise InputError(f"matrix of group {group!r} must be a ConfusionMatrix, got {m!r}")
        for group in empty_groups:
            if group in matrices:
                raise InputError(f"empty group {group!r} also holds a matrix")
        if len(set(empty_groups)) != len(empty_groups):
            raise InputError(f"empty groups repeat a label: {empty_groups}")
        return super().__new__(cls, matrices, empty_groups)

    @classmethod
    def from_valid(
        cls, tally: Mapping[str, Sequence[int]], groups: Sequence[str] | None = None
    ) -> GroupedConfusion:
        """Matrices from per-group cells ``[a, b, c, d]`` known valid: counts
        of at least one record that the caller made itself, not checked again.

        Groups come in ``groups`` order, or in ``tally`` order when no
        universe is declared. Declared groups without records are excluded
        and reported via ``empty_groups``.
        """
        order = tally if groups is None else groups
        make = ConfusionMatrix._make
        matrices = {group: make(tally[group]) for group in order if group in tally}
        if not matrices:
            raise InputError("dataset has no records in any declared group")
        return super().__new__(cls, matrices, tuple(g for g in order if g not in tally))

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self.matrices)

    def __getitem__(self, group: str) -> ConfusionMatrix:
        try:
            return self.matrices[group]
        except KeyError:
            raise InputError(f"unknown group {group!r}; have {self.groups}") from None

    @property
    def total(self) -> int:
        return sum(m.n for m in self.matrices.values())


class Record(NamedTuple):
    """One individual: true label ``y``, prediction ``r`` (True means positive),
    and an optional suitability score in [0, 1]. A plain row: it checks
    nothing, :meth:`Dataset.from_records` does."""

    id: str
    group: str
    y: bool
    r: bool
    score: float | None = None


class Dataset(NamedTuple):
    """Records plus the declared group universe, held as given; ``None``
    declares none, and :func:`tabulate` then takes the records' groups in
    order of first appearance. :meth:`from_records` validates records."""

    records: tuple[Record, ...]
    groups: tuple[str, ...] | None = None

    @classmethod
    def from_records(
        cls, records: Iterable[Record], groups: Sequence[str] | None = None
    ) -> Dataset:
        """Hand-built records as a dataset. Raises ``InputError`` for a score
        that is not a real number in [0, 1] (a bool is not one) or a label
        ``y`` or ``r`` that is not a bool (checked first, record by record), an
        empty or repeated group universe, a repeated id, or a group outside
        ``groups``. It stays for records built by hand, as in
        ``perfbench/test_perfbench.py``."""
        records = tuple(records)
        for rec in records:
            score = rec.score
            if score is not None and (
                isinstance(score, bool) or not isinstance(score, Real) or not 0.0 <= score <= 1.0
            ):
                raise InputError(f"score for {rec.id!r} must lie in [0, 1], got {score!r}")
            if not isinstance(rec.y, bool) or not isinstance(rec.r, bool):
                raise InputError(f"labels of {rec.id!r} must be bool, got y={rec.y!r}, r={rec.r!r}")
        groups = None if groups is None else tuple(groups)
        declared = {rec.group for rec in records} if groups is None else set(groups)
        if not declared:
            raise InputError("at least one group must be declared")
        if groups is not None and len(declared) != len(groups):
            raise InputError("declared groups repeat a label")
        seen: set[str] = set()
        for rec in records:
            if rec.id in seen:
                raise InputError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
            if rec.group not in declared:
                raise InputError(f"record {rec.id!r} has undeclared group {rec.group!r}")
        return cls(records, groups)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def tabulate(ds: Dataset) -> GroupedConfusion:
    """Compile one confusion matrix per declared group, or per group of the
    records when none is declared.

    Groups without records are excluded and reported via ``empty_groups``.
    """
    tally: dict[str, list[int]] = {}
    for rec in ds.records:
        cells = tally.get(rec.group) or tally.setdefault(rec.group, [0, 0, 0, 0])
        cells[CELLS.index((rec.y, rec.r))] += 1
    return GroupedConfusion.from_valid(tally, ds.groups)


def to_joint(g: GroupedConfusion) -> FiniteJoint:
    """Grouped counts as a count joint over (A, Y, R).

    Each cell holds its integer count and the denominator is the grand
    total, so every mass, deviation and conditional rate on the joint is an
    exact ``Fraction``.
    """
    table = {
        (group, LABEL[y], LABEL[r]): count
        for group, m in g.matrices.items()
        for count, (y, r) in zip(m, CELLS)
    }
    variables = (("A", g.groups), ("Y", (POS, NEG)), ("R", (POS, NEG)))
    return FiniteJoint.from_valid(variables, table)


def is_positive(g: GroupedConfusion) -> bool:
    """True iff every cell of every group's matrix is strictly positive."""
    return all(
        m.a > 0 and m.b > 0 and m.c > 0 and m.d > 0 for m in g.matrices.values()
    )
