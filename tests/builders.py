"""Test-only builders of input data: datasets realizing given matrices,
seeded scored datasets, and their CSV files."""

from __future__ import annotations

import csv
import random

from fairaudit.confusion import CELLS, Dataset, GroupedConfusion, Record
from fairaudit.generators import MAX_GROUPS


def synthesize_dataset(g: GroupedConfusion) -> Dataset:
    """Deterministic dataset realizing the grouped counts exactly.

    Inverse of :func:`tabulate` on counts: tabulating the result returns the
    input matrices cell for cell.
    """
    records: list[Record] = []
    for group, m in g.matrices.items():
        serial = 0
        for count, (y, r) in zip((m.a, m.b, m.c, m.d), CELLS):
            for _ in range(count):
                records.append(Record(id=f"{group}-{serial:04d}", group=group, y=y, r=r))
                serial += 1
    return Dataset(records=tuple(records), groups=g.groups + g.empty_groups)


def random_scored_dataset(rng: random.Random) -> tuple[Dataset, str]:
    """Scored dataset plus a group guaranteed to contain a false negative and
    a strictly better-scored true positive (a swap-attack target)."""
    while True:
        groups = tuple(f"g{i}" for i in range(rng.randint(2, MAX_GROUPS)))
        records = []
        for group in groups:
            for i in range(rng.randint(4, 12)):
                records.append(
                    Record(
                        id=f"{group}-{i:03d}",
                        group=group,
                        y=rng.random() < 0.6,
                        r=rng.random() < 0.5,
                        score=round(rng.random(), 3),
                    )
                )
        ds = Dataset.from_records(records, groups)
        for group in groups:
            members = [rec for rec in ds.records if rec.group == group]
            fn_scores = [rec.score for rec in members if rec.y and not rec.r]
            tp_scores = [rec.score for rec in members if rec.y and rec.r]
            if fn_scores and tp_scores and max(tp_scores) > min(fn_scores):
                return ds, group


def export_csv(ds: Dataset, path: str) -> None:
    """Write a dataset in the canonical encoding (labels as +/-)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "group", "y_true", "y_pred", "score"])
        for rec in ds.records:
            writer.writerow(
                [
                    rec.id,
                    rec.group,
                    "+" if rec.y else "-",
                    "+" if rec.r else "-",
                    "" if rec.score is None else repr(rec.score),
                ]
            )
