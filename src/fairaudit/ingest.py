"""CSV ingest, the one module that reads CSV. It accepts rows under the header
``id,group,y_true,y_pred[,score]`` with a :class:`CsvSchema`'s label encodings
and scores in [0, 1], and rejects others with an ``InputError`` naming file and
line. ``ingest_counts`` counts rows; ``ingest_csv`` keeps one ``Record`` each.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator

from .confusion import Dataset, GroupedConfusion, Record
from .errors import InputError

REQUIRED_COLUMNS = ("id", "group", "y_true", "y_pred")
DEFAULT_POSITIVE = ("1", "true", "yes", "+", "positive")
DEFAULT_NEGATIVE = ("0", "false", "no", "-", "negative")


@dataclass(frozen=True)
class CsvSchema:
    """Label encodings and (optionally) the declared group universe.

    Encodings are stored stripped and lower-cased, as cells are read, so
    matching is case- and space-insensitive.
    """

    positive_labels: tuple[str, ...] = DEFAULT_POSITIVE
    negative_labels: tuple[str, ...] = DEFAULT_NEGATIVE
    groups: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for option in ("positive_labels", "negative_labels"):
            labels = tuple(label.strip().lower() for label in getattr(self, option))
            object.__setattr__(self, option, labels)
        if not all(self.positive_labels + self.negative_labels):
            raise InputError("label encodings must be nonempty (an empty one matches empty cells)")
        if self.groups is not None and not all(label.strip() for label in self.groups):
            raise InputError("--groups lists an empty label, which no record's group can match")
        shared = sorted(set(self.positive_labels) & set(self.negative_labels))
        if shared:
            raise InputError(
                f"label encoding(s) {', '.join(map(repr, shared))} "
                "listed as both positive and negative"
            )


#: One validated data row: id, group, true label, prediction, optional score.
Row = tuple[str, str, bool, bool, float | None]


def _lines(path: str, reader: Any) -> Iterator[list[str]]:
    """Rows of a ``csv.reader``; a file not UTF-8 or not CSV raises ``InputError``."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def _rows(path: str, schema: CsvSchema) -> Iterator[Row]:
    """Validated rows of a CSV file, rejecting schema violations with locations.

    Blank rows are skipped, missing cells read as empty, and a header name
    that appears twice names its last column (the rules of
    ``csv.DictReader``). An error names the physical line the bad row ends on.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        lines = _lines(path, reader)
        header = next(lines, None)
        if header is None:
            raise InputError(f"{path}: file is empty; header row required")
        column = {name: i for i, name in enumerate(header)}
        missing = [col for col in REQUIRED_COLUMNS if col not in column]
        if missing:
            raise InputError(f"{path}: missing column(s): {', '.join(missing)}")
        i_id, i_group, i_y, i_r = (column[col] for col in REQUIRED_COLUMNS)
        i_score = column.get("score")
        padding = [""] * len(header)
        labels = {
            **dict.fromkeys(schema.negative_labels, False),
            **dict.fromkeys(schema.positive_labels, True),
        }
        declared = None if schema.groups is None else frozenset(schema.groups)
        seen: set[str] = set()
        for row in lines:
            if not row:
                continue
            if len(row) < len(header):
                row += padding[len(row):]
            try:
                rid = row[i_id].strip()
                if not rid:
                    raise InputError("empty id")
                if rid in seen:
                    raise InputError(f"duplicate id {rid!r}")
                seen.add(rid)
                group = row[i_group].strip()
                if not group:
                    raise InputError("empty group")
                if declared is not None and group not in declared:
                    raise InputError(f"group {group!r} not among declared groups {schema.groups}")
                y = labels.get(row[i_y].strip().lower())
                r = labels.get(row[i_r].strip().lower())
                if y is None or r is None:
                    name, raw = ("y_true", row[i_y]) if y is None else ("y_pred", row[i_r])
                    raise InputError(
                        f"cannot parse {name}={raw!r}; "
                        f"positive encodings {schema.positive_labels}, "
                        f"negative encodings {schema.negative_labels}"
                    )
                score: float | None = None
                raw_score = "" if i_score is None else row[i_score].strip()
                if raw_score:
                    try:
                        score = float(raw_score)
                    except ValueError:
                        raise InputError(f"cannot parse score={raw_score!r}") from None
                    if not 0.0 <= score <= 1.0:
                        raise InputError(f"score for {rid!r} must lie in [0, 1], got {score}")
            except InputError as exc:  # blank lines and quoted newlines count
                raise InputError(f"{path}:{reader.line_num}: {exc}") from None
            yield rid, group, y, r, score
    if not seen:
        raise InputError(f"{path}: no data rows")
    if declared is not None and len(declared) != len(schema.groups):
        raise InputError("declared groups repeat a label")


def ingest_counts(path: str, schema: CsvSchema = CsvSchema()) -> GroupedConfusion:
    """Per-group confusion matrices of a CSV file, counted as rows are read."""
    counts = Counter((group, y, r) for _, group, y, r, _ in _rows(path, schema))
    return GroupedConfusion.from_counts(counts, schema.groups)


def ingest_csv(path: str, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a dataset from CSV, rejecting schema violations with locations."""
    records = [Record(*row) for row in _rows(path, schema)]
    return Dataset.from_records(records, schema.groups)
