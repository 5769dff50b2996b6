"""CSV ingest, the one module that reads CSV. It accepts rows under the header
``id,group,y_true,y_pred[,score]`` with a :class:`CsvSchema`'s label encodings
and scores in [0, 1], and rejects others with an ``InputError`` naming file and
line. Declared groups are stripped like encodings, and each distinct raw
``(group, y_true, y_pred)`` spelling is validated once per file.
``ingest_counts`` counts rows; ``ingest_csv`` keeps each row as a ``Record``
and checks nothing again (``Dataset.from_records`` validates hand-built ones).
"""

from __future__ import annotations

import csv
from collections import Counter, namedtuple
from operator import itemgetter
from typing import Iterator

from .confusion import Dataset, GroupedConfusion, Record
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


def _rows(
    path: str, schema: CsvSchema
) -> Iterator[tuple[str, tuple[str, bool, bool], float | None]]:
    """The ``(id, (group, y, r), score)`` of each row of a CSV file, rejecting
    schema violations with locations; a file not UTF-8 or not CSV raises ``InputError``.

    Blank rows are skipped, missing cells read as empty, and a header name
    that appears twice names its last column (the rules of
    ``csv.DictReader``). An error names the physical line the bad row ends on.
    A raw ``(group, y_true, y_pred)`` triple is checked the first time it
    appears; later rows that spell it the same way reuse its ``(group, y, r)``.
    """
    labels = dict.fromkeys(schema.negative_labels, False)
    labels.update(dict.fromkeys(schema.positive_labels, True))
    declared = None if schema.groups is None else frozenset(schema.groups)
    keys: dict[str, dict[str, dict[str, tuple[str, bool, bool]]]] = {}

    def check(raw_group: str, raw_y: str, raw_r: str) -> tuple[str, bool, bool]:
        """Validate a new raw triple and keep its key; the group cell is the
        innermost level, so each new group adds a dict entry, not two dicts."""
        group = raw_group.strip()
        if not group:
            raise InputError("empty group")
        if declared is not None and group not in declared:
            raise InputError(f"group {group!r} not among declared groups {schema.groups}")
        y = labels.get(raw_y.strip().lower())
        r = labels.get(raw_r.strip().lower())
        if y is None or r is None:
            name, raw = ("y_true", raw_y) if y is None else ("y_pred", raw_r)
            raise InputError(
                f"cannot parse {name}={raw!r}; positive encodings {schema.positive_labels}, "
                f"negative encodings {schema.negative_labels}"
            )
        key = keys.setdefault(raw_y, {}).setdefault(raw_r, {})[raw_group] = group, y, r
        return key

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
                    try:
                        key = keys[row[i_y]][row[i_r]][row[i_group]]
                    except KeyError:
                        key = check(row[i_group], row[i_y], row[i_r])
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
                yield rid, key, score
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    if not seen:
        raise InputError(f"{path}: no data rows")


def ingest_counts(path: str, schema: CsvSchema = CsvSchema()) -> GroupedConfusion:
    """Per-group confusion matrices of a CSV file, counted as rows are read."""
    counts = Counter(map(itemgetter(1), _rows(path, schema)))
    return GroupedConfusion.from_counts(counts, schema.groups)


def ingest_csv(path: str, schema: CsvSchema = CsvSchema()) -> Dataset:
    """The records of a CSV file, one per row as validated by ``_rows``."""
    records = (Record(rid, g, y, r, score) for rid, (g, y, r), score in _rows(path, schema))
    return Dataset(tuple(records), schema.groups)
