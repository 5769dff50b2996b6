"""CSV ingest, the one module that reads CSV. It accepts rows under the header
``id,group,y_true,y_pred[,score]`` with a :class:`CsvSchema`'s label encodings
and scores in [0, 1], and rejects others with an ``InputError`` naming file and
line. Declared groups are stripped like encodings, and each distinct raw
spelling of a group, y_true or y_pred cell is validated once per file.
One loop reads, checks and counts each row in place, in its group's cells;
``ingest_counts`` builds the matrices from those counts without checking them
again, and ``ingest_csv`` has the loop also keep each row as a ``Record``
(``Dataset.from_records`` validates hand-built ones).
"""

from __future__ import annotations

import csv
from collections import namedtuple

from .confusion import CELLS, Dataset, GroupedConfusion, Record
from .errors import InputError

REQUIRED_COLUMNS = ("id", "group", "y_true", "y_pred")
DEFAULT_POSITIVE = ("1", "true", "yes", "+", "positive")
DEFAULT_NEGATIVE = ("0", "false", "no", "-", "negative")


class CsvSchema(namedtuple("CsvSchema", "positive_labels negative_labels groups")):
    """Label encodings and (optionally) the declared group universe.

    Encodings are stored stripped and lower-cased, groups stripped, as cells
    are read, so matching ignores surrounding space and the encodings' case.
    """

    __slots__ = ()

    def __new__(
        cls, positive_labels: tuple[str, ...] = DEFAULT_POSITIVE,
        negative_labels: tuple[str, ...] = DEFAULT_NEGATIVE, groups: tuple[str, ...] | None = None,
    ) -> CsvSchema:
        positive_labels = tuple(label.strip().lower() for label in positive_labels)
        negative_labels = tuple(label.strip().lower() for label in negative_labels)
        if not all(positive_labels + negative_labels):
            raise InputError("label encodings must be nonempty (an empty one matches empty cells)")
        groups = None if groups is None else tuple(label.strip() for label in groups)
        if groups == ():
            raise InputError("at least one group must be declared")
        if groups is not None and not all(groups):
            raise InputError("--groups lists an empty label, which no record's group can match")
        if groups is not None and len(set(groups)) != len(groups):
            raise InputError("declared groups repeat a label")
        shared = sorted(set(positive_labels) & set(negative_labels))
        if shared:
            raise InputError(
                f"label encoding(s) {', '.join(map(repr, shared))} "
                "listed as both positive and negative"
            )
        return super().__new__(cls, positive_labels, negative_labels, groups)


def _read(
    path: str, schema: CsvSchema, records: list[Record] | None = None
) -> dict[str, list[int]]:
    """Per-group cells ``[a, b, c, d]`` of a CSV file, counted as each row is
    read and checked, groups in order of first appearance; with ``records``,
    each row is also appended to it as a ``Record``. Schema violations raise
    ``InputError`` with locations, and so does a file not UTF-8 or not CSV.

    Blank rows are skipped, missing cells read as empty, and a header name
    that appears twice names its last column (the rules of
    ``csv.DictReader``). An error names the physical line the bad row ends on.
    A row's cells are checked in the order group, y_true, y_pred, each raw
    spelling only the first time it appears in its column.
    """
    encoded = dict.fromkeys(schema.positive_labels, 0) | dict.fromkeys(schema.negative_labels, 1)
    declared = None if schema.groups is None else frozenset(schema.groups)
    # Each checked spelling of a group maps to the group's cells, which its
    # name, a spelling of itself, holds from the group's first appearance on.
    # Each checked label spelling maps to its offset in CELLS: y adds 1 when
    # negative, r adds 2.
    cells_of: dict[str, list[int]] = {}
    y_of: dict[str, int] = {}
    r_of: dict[str, int] = {}

    def new_group(raw: str) -> list[int]:
        group = raw.strip()
        if not group:
            raise InputError("empty group")
        if declared is not None and group not in declared:
            raise InputError(f"group {group!r} not among declared groups {schema.groups}")
        cells = cells_of[raw] = cells_of.setdefault(group, [0, 0, 0, 0])
        return cells

    def new_labels(raw_y: str, raw_r: str) -> int:
        for name, raw, offsets, weight in (("y_true", raw_y, y_of, 1), ("y_pred", raw_r, r_of, 2)):
            if raw not in offsets:
                value = encoded.get(raw.strip().lower())
                if value is None:
                    raise InputError(
                        f"cannot parse {name}={raw!r}; positive encodings "
                        f"{schema.positive_labels}, negative encodings {schema.negative_labels}"
                    )
                offsets[raw] = weight * value
        return y_of[raw_y] + r_of[raw_r]

    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: file is empty; header row required")
            column = {name: i for i, name in enumerate(header)}
            missing = [col for col in REQUIRED_COLUMNS if col not in column]
            if missing:
                raise InputError(f"{path}: missing column(s): {', '.join(missing)}")
            i_id, i_group, i_y, i_r = (column[col] for col in REQUIRED_COLUMNS)
            i_score = column.get("score")
            width = len(header)
            padding = [""] * width
            seen: set[str] = set()
            make = Record._make
            for row in reader:
                if len(row) < width:
                    if not row:  # a blank line
                        continue
                    row += padding[len(row):]
                try:
                    rid = row[i_id].strip()
                    if not rid:
                        raise InputError("empty id")
                    if rid in seen:
                        raise InputError(f"duplicate id {rid!r}")
                    seen.add(rid)
                    cells = cells_of.get(row[i_group]) or new_group(row[i_group])
                    try:
                        cell = y_of[row[i_y]] + r_of[row[i_r]]
                    except KeyError:
                        cell = new_labels(row[i_y], row[i_r])
                    cells[cell] += 1
                    raw_score = "" if i_score is None else row[i_score]
                    try:  # float() skips the spaces strip() drops, bar \x1c-\x1f
                        score = float(raw_score) if raw_score else None
                    except ValueError:  # a bad cell, a blank one, or one of those
                        raw_score = raw_score.strip()
                        try:
                            score = float(raw_score) if raw_score else None
                        except ValueError:
                            raise InputError(f"cannot parse score={raw_score!r}") from None
                    if score is not None and not 0.0 <= score <= 1.0:
                        raise InputError(f"score for {rid!r} must lie in [0, 1], got {score}")
                except InputError as exc:  # blank lines and quoted newlines count
                    raise InputError(f"{path}:{reader.line_num}: {exc}") from None
                if records is not None:
                    y, r = CELLS[cell]
                    records.append(make((rid, row[i_group].strip(), y, r, score)))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    if not seen:
        raise InputError(f"{path}: no data rows")
    return {group: cells for group, cells in cells_of.items() if group == group.strip()}


def ingest_counts(path: str, schema: CsvSchema = CsvSchema()) -> GroupedConfusion:
    """Per-group confusion matrices of a CSV file, counted as rows are read."""
    return GroupedConfusion.from_valid(_read(path, schema), schema.groups)


def ingest_csv(path: str, schema: CsvSchema = CsvSchema()) -> Dataset:
    """The records of a CSV file, one per row as validated by ``_read``."""
    records: list[Record] = []
    _read(path, schema, records)
    return Dataset(tuple(records), schema.groups)
