"""Confusion matrices, their statistics, and conversions to datasets/joints.

Counts stay integers and every statistic is an exact :class:`~fractions.Fraction`,
so rate identities can be asserted without floating-point slack. A statistic
whose denominator is zero is ``None`` (undefined), never 0 or NaN; fairness
comparisons downstream turn undefined constituents into NOT-COMPARABLE
verdicts instead of silently passing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 count table for one group: a=TP, b=FP, c=FN, d=TN."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InputError(f"cell {name} must be a nonnegative integer, got {value!r}")
        if self.n < 1:
            raise InputError("confusion matrix must count at least one record")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def accuracy(self) -> Fraction:
        return Fraction(self.a + self.d, self.n)

    def _rate(self, name: str) -> Fraction | None:
        part, whole = RATES[name](self.a, self.b, self.c, self.d)
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

    @property
    def selection_rate(self) -> Fraction:
        return Fraction(*RATES["selection_rate"](self.a, self.b, self.c, self.d))

    def scaled(self, k: int) -> ConfusionMatrix:
        if k < 1:
            raise InputError("scale factor must be a positive integer")
        return ConfusionMatrix(self.a * k, self.b * k, self.c * k, self.d * k)


@dataclass(frozen=True)
class GroupedConfusion:
    """One confusion matrix per group, in a fixed group order.

    ``empty_groups`` records declared groups that were dropped by
    :func:`tabulate` for having no records. Fairness measures require at
    least two populated groups; a single-group table is representable so the
    drop-with-warning path stays usable.
    """

    matrices: Mapping[str, ConfusionMatrix]
    empty_groups: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.matrices:
            raise InputError("at least one group is required")
        object.__setattr__(self, "matrices", dict(self.matrices))
        object.__setattr__(self, "empty_groups", tuple(self.empty_groups))

    @classmethod
    def from_counts(
        cls, counts: Mapping[tuple[str, bool, bool], int], groups: Sequence[str] | None = None
    ) -> GroupedConfusion:
        """Matrices from record counts keyed ``(group, y, r)``.

        Groups come in ``groups`` order, or in order of first appearance in
        ``counts`` when no universe is declared. Declared groups without
        records are excluded and reported via ``empty_groups``.
        """
        if groups is None:
            groups = tuple(dict.fromkeys(group for group, _, _ in counts))
        matrices: dict[str, ConfusionMatrix] = {}
        empty: list[str] = []
        for group in groups:
            cells = [counts.get((group, y, r), 0) for y, r in CELLS]
            if any(cells):
                matrices[group] = ConfusionMatrix(*cells)
            else:
                empty.append(group)
        if not matrices:
            raise InputError("dataset has no records in any declared group")
        return cls(matrices, empty_groups=tuple(empty))

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

    def replace(self, group: str, matrix: ConfusionMatrix) -> GroupedConfusion:
        self[group]  # validate membership
        updated = {g: (matrix if g == group else m) for g, m in self.matrices.items()}
        return GroupedConfusion(updated, self.empty_groups)


@dataclass(frozen=True)
class Record:
    """One individual: true label ``y``, prediction ``r`` (True means positive),
    and an optional suitability score in [0, 1]."""

    id: str
    group: str
    y: bool
    r: bool
    score: float | None = None

    def __post_init__(self) -> None:
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise InputError(f"score for {self.id!r} must lie in [0, 1], got {self.score}")


@dataclass(frozen=True)
class Dataset:
    """Immutable list of records plus the declared group universe."""

    records: tuple[Record, ...]
    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise InputError("at least one group must be declared")
        if len(set(self.groups)) != len(self.groups):
            raise InputError("declared groups repeat a label")
        seen: set[str] = set()
        declared = set(self.groups)
        for rec in self.records:
            if rec.id in seen:
                raise InputError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
            if rec.group not in declared:
                raise InputError(
                    f"record {rec.id!r} has undeclared group {rec.group!r}"
                )

    @classmethod
    def from_records(
        cls, records: Iterable[Record], groups: Sequence[str] | None = None
    ) -> Dataset:
        records = tuple(records)
        if groups is None:
            groups = dict.fromkeys(rec.group for rec in records)  # first-appearance order
        return cls(records=records, groups=tuple(groups))

    def with_predictions(self, overrides: Mapping[str, bool]) -> Dataset:
        """Copy of the dataset with the listed record predictions replaced."""
        unknown = set(overrides) - {rec.id for rec in self.records}
        if unknown:
            raise InputError(f"unknown record ids: {sorted(unknown)}")
        records = tuple(
            Record(rec.id, rec.group, rec.y, overrides.get(rec.id, rec.r), rec.score)
            for rec in self.records
        )
        return Dataset(records=records, groups=self.groups)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def tabulate(ds: Dataset) -> GroupedConfusion:
    """Compile one confusion matrix per declared group.

    Groups without records are excluded and reported via ``empty_groups``.
    """
    counts = Counter((rec.group, rec.y, rec.r) for rec in ds.records)
    return GroupedConfusion.from_counts(counts, ds.groups)


def to_joint(g: GroupedConfusion) -> FiniteJoint:
    """Grouped counts as a count joint over (A, Y, R).

    Each cell holds its integer count and the denominator is the grand
    total, so every mass, deviation and conditional rate on the joint is an
    exact ``Fraction``.
    """
    table = {
        (group, LABEL[y], LABEL[r]): count
        for group, m in g.matrices.items()
        for count, (y, r) in zip((m.a, m.b, m.c, m.d), CELLS)
    }
    variables = (("A", g.groups), ("Y", (POS, NEG)), ("R", (POS, NEG)))
    return FiniteJoint(variables=variables, table=table)


def is_positive(g: GroupedConfusion) -> bool:
    """True iff every cell of every group's matrix is strictly positive."""
    return all(
        m.a > 0 and m.b > 0 and m.c > 0 and m.d > 0 for m in g.matrices.values()
    )
