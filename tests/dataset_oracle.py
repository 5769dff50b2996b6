"""The earlier ``Record``, ``Dataset`` and ``swap_attack``, kept verbatim apart
from their names, as a differential-test oracle.

``Record`` validated its score when built, ``Dataset`` validated its ids and
groups when built (``from_records`` derived the groups when none were
declared), and ``swap_attack`` swapped two predictions by copying every
record through ``with_predictions``, which validated the copy again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from fairaudit.errors import Infeasible, InputError, PreconditionError


@dataclass(frozen=True)
class OracleRecord:
    id: str
    group: str
    y: bool
    r: bool
    score: float | None = None

    def __post_init__(self) -> None:
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise InputError(f"score for {self.id!r} must lie in [0, 1], got {self.score}")


@dataclass(frozen=True)
class OracleDataset:
    records: tuple[OracleRecord, ...]
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
        cls, records: Iterable[OracleRecord], groups: Sequence[str] | None = None
    ) -> OracleDataset:
        records = tuple(records)
        if groups is None:
            groups = dict.fromkeys(rec.group for rec in records)  # first-appearance order
        return cls(records=records, groups=tuple(groups))

    def with_predictions(self, overrides: Mapping[str, bool]) -> OracleDataset:
        """Copy of the dataset with the listed record predictions replaced."""
        unknown = set(overrides) - {rec.id for rec in self.records}
        if unknown:
            raise InputError(f"unknown record ids: {sorted(unknown)}")
        records = tuple(
            OracleRecord(rec.id, rec.group, rec.y, overrides.get(rec.id, rec.r), rec.score)
            for rec in self.records
        )
        return OracleDataset(records=records, groups=self.groups)


@dataclass(frozen=True)
class OracleSwapResult:
    swapped_pair: tuple[str, str]
    score_gap: float
    after: OracleDataset


def oracle_swap_attack(ds: OracleDataset, group: str) -> OracleSwapResult:
    """Exchange the predictions of a false negative and a better-scored true
    positive in one group.

    Confusion matrices are unchanged cell for cell, so every group-fairness
    verdict is unchanged, yet the swapped pair violates the Lipschitz
    condition whenever its scaled score gap is below 1. The attacked pair is
    the lowest-scored false negative and the highest-scored true positive,
    each tie broken by the smaller id, so it has the largest score gap.
    """
    members = [rec for rec in ds.records if rec.group == group]
    if not members:
        raise InputError(f"group {group!r} has no records")
    unscored = [rec.id for rec in members if rec.score is None]
    if unscored:
        raise PreconditionError(
            f"group {group!r} has unscored records: {sorted(unscored)}"
        )
    false_negatives = [(float(rec.score), rec.id) for rec in members if rec.y and not rec.r]
    true_positives = [(-float(rec.score), rec.id) for rec in members if rec.y and rec.r]
    fn_score, x_id = min(false_negatives, default=(math.inf, None))
    neg_tp_score, star_id = min(true_positives, default=(math.inf, None))
    tp_score = -neg_tp_score
    if tp_score <= fn_score:
        raise Infeasible(
            f"group {group!r} has no false negative with a higher-scored true positive"
        )
    after = ds.with_predictions({x_id: True, star_id: False})
    return OracleSwapResult(
        swapped_pair=(x_id, star_id),
        score_gap=tp_score - fn_score,
        after=after,
    )
