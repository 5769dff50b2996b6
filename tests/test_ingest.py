"""Count-first CSV ingest against the row-at-a-time ingest it replaced.

The oracle below is the previous ``CsvSchema.parse_label``, ``ingest_csv``,
``Record``, ``Dataset`` (its validation and ``from_records``) and
``tabulate``, kept verbatim apart from their names: it went through
``csv.DictReader``, built one validated record per row, validated the whole
dataset a second time and only then counted. Both sinks of the new row
parser must give what it gave, on seeded and hypothesis-generated CSVs:
``ingest_counts`` and ``tabulate(ingest_csv(...))`` the same matrices, group
order and dropped groups, ``ingest_csv`` the same records, and every
rejected file the same ``InputError`` message, physical line included. Where
the oracle let the csv module's own error through, ingest now raises that
error's message as an ``InputError`` with the file and line.
"""

from __future__ import annotations

import csv
import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from builders import export_csv, synthesize_dataset

from fairaudit import ingest
from fairaudit.cli import main
from fairaudit.confusion import ConfusionMatrix, GroupedConfusion, tabulate
from fairaudit.errors import InputError
from fairaudit.ingest import (
    DEFAULT_NEGATIVE,
    DEFAULT_POSITIVE,
    REQUIRED_COLUMNS,
    CsvSchema,
    ingest_counts,
    ingest_csv,
)

# ---------------------------------------------------------------------------
# Oracle: the previous ingest, verbatim
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSchema:
    positive_labels: tuple[str, ...] = DEFAULT_POSITIVE
    negative_labels: tuple[str, ...] = DEFAULT_NEGATIVE
    groups: tuple[str, ...] | None = None

    def parse_label(self, raw: str, column: str, where: str) -> bool:
        value = raw.strip().lower()
        if value in self.positive_labels:
            return True
        if value in self.negative_labels:
            return False
        raise InputError(
            f"{where}: cannot parse {column}={raw!r}; "
            f"positive encodings {self.positive_labels}, "
            f"negative encodings {self.negative_labels}"
        )


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


def oracle_ingest_csv(path: str, schema: OracleSchema = OracleSchema()) -> OracleDataset:
    """Read a dataset from CSV, rejecting schema violations with locations."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise InputError(f"{path}: file is empty; header row required")
        missing = [col for col in REQUIRED_COLUMNS if col not in reader.fieldnames]
        if missing:
            raise InputError(f"{path}: missing column(s): {', '.join(missing)}")
        has_score = "score" in reader.fieldnames
        declared = None if schema.groups is None else frozenset(schema.groups)
        records: list[OracleRecord] = []
        seen: set[str] = set()
        for row in reader:
            where = f"{path}:{reader.line_num}"  # blank lines and quoted newlines count
            rid = (row.get("id") or "").strip()
            if not rid:
                raise InputError(f"{where}: empty id")
            if rid in seen:
                raise InputError(f"{where}: duplicate id {rid!r}")
            seen.add(rid)
            group = (row.get("group") or "").strip()
            if not group:
                raise InputError(f"{where}: empty group")
            if declared is not None and group not in declared:
                raise InputError(
                    f"{where}: group {group!r} not among declared groups {schema.groups}"
                )
            y = schema.parse_label(row.get("y_true") or "", "y_true", where)
            r = schema.parse_label(row.get("y_pred") or "", "y_pred", where)
            score: float | None = None
            raw_score = (row.get("score") or "").strip() if has_score else ""
            if raw_score:
                try:
                    score = float(raw_score)
                except ValueError:
                    raise InputError(f"{where}: cannot parse score={raw_score!r}") from None
            try:
                records.append(OracleRecord(id=rid, group=group, y=y, r=r, score=score))
            except InputError as exc:
                raise InputError(f"{where}: {exc}") from None
    if not records:
        raise InputError(f"{path}: no data rows")
    return OracleDataset.from_records(records, schema.groups)


def oracle_tabulate(ds: OracleDataset) -> GroupedConfusion:
    """Compile one confusion matrix per declared group.

    Groups without records are excluded and reported via ``empty_groups``.
    """
    counts = {group: [0, 0, 0, 0] for group in ds.groups}
    for rec in ds.records:
        cell = counts[rec.group]
        if rec.y and rec.r:
            cell[0] += 1
        elif not rec.y and rec.r:
            cell[1] += 1
        elif rec.y and not rec.r:
            cell[2] += 1
        else:
            cell[3] += 1
    matrices = {
        group: ConfusionMatrix(*cell) for group, cell in counts.items() if sum(cell) > 0
    }
    empty = tuple(group for group in ds.groups if sum(counts[group]) == 0)
    if not matrices:
        raise InputError("dataset has no records in any declared group")
    return GroupedConfusion(matrices, empty_groups=empty)


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def outcome(run: Callable[[], Any]) -> tuple[str, Any]:
    """``("ok", value)`` or ``("error", message)`` of one ingest."""
    try:
        return "ok", run()
    except InputError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def oracle_outcome(path: str, groups: tuple[str, ...] | None) -> tuple[str, Any]:
    """The oracle's outcome, with a ``csv.Error`` wrapped as ingest now wraps
    it: an ``InputError`` naming the file and the line the reader stopped on."""
    try:
        return outcome(lambda: oracle_ingest_csv(path, OracleSchema(groups=groups)))
    except csv.Error as exc:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            with pytest.raises(csv.Error):
                for _ in reader:
                    pass
        return "error", f"InputError: {path}:{reader.line_num}: {exc}"


def counted(g: GroupedConfusion) -> tuple[list[tuple[str, ConfusionMatrix]], tuple[str, ...]]:
    """Matrices in group order and the dropped groups (``==`` on
    ``GroupedConfusion`` ignores the order)."""
    return list(g.matrices.items()), g.empty_groups


def rows_of(records: Iterable[Any]) -> list[tuple[Any, ...]]:
    return [(rec.id, rec.group, rec.y, rec.r, rec.score) for rec in records]


def assert_matches_oracle(path: str, groups: tuple[str, ...] | None = None) -> tuple[str, Any]:
    schema = CsvSchema(groups=groups)
    old_ds = oracle_outcome(path, groups)
    old = outcome(lambda: counted(oracle_tabulate(old_ds[1]))) if old_ds[0] == "ok" else old_ds
    assert outcome(lambda: counted(ingest_counts(path, schema))) == old
    assert outcome(lambda: counted(tabulate(ingest_csv(path, schema)))) == old
    new_ds = outcome(lambda: ingest_csv(path, schema))
    if old_ds[0] == "ok":
        assert new_ds[0] == "ok"
        assert rows_of(new_ds[1].records) == rows_of(old_ds[1].records)
        assert new_ds[1].groups == old_ds[1].groups
    else:
        assert new_ds == old_ds
    return old


# ---------------------------------------------------------------------------
# Seeded CSVs
# ---------------------------------------------------------------------------

SPELLINGS = {
    True: ("1", "true", "TRUE", "Yes", " yes ", " 1 ", "+", "Positive", "\tTrue"),
    False: ("0", "false", "False", "NO", " no", "-", " 0 ", "negative", "FALSE "),
}
HEADERS = (
    ("id", "group", "y_true", "y_pred"),
    ("id", "group", "y_true", "y_pred", "score"),
    ("score", "y_pred", "note", "group", "id", "y_true"),
    ("id", "group", "y_true", "y_pred", "group"),  # the last "group" column counts
    ("id", "y_pred", "group", "y_true", "y_pred", "score"),
)
GROUPS = ("p", "q", "r", " s ")


def seeded_csv(rng: random.Random, faults: bool) -> str:
    """CSV text with mixed spellings, blank lines, short and long rows and
    quoted newlines; with ``faults``, some rows break one rule."""
    header = rng.choice(HEADERS)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=rng.choice(("\n", "\r\n")))
    writer.writerow(header)
    for i in range(rng.randint(0, 30)):
        if rng.random() < 0.1:
            out.write(rng.choice(("\n", "\r\n")))  # blank line
        y, r = rng.random() < 0.5, rng.random() < 0.5
        cells = {
            "id": f"r{i}" if rng.random() < 0.9 else f"r\n{i}",
            "group": rng.choice(GROUPS) if rng.random() < 0.95 else "q\nq",
            "y_true": rng.choice(SPELLINGS[y]),
            "y_pred": rng.choice(SPELLINGS[r]),
            "score": rng.choice(("", " ", "0", "1", "0.5", " 0.25 ", "1e-3")),
            "note": rng.choice(("", "x", "a,b", 'say "hi"')),
        }
        if faults and rng.random() < 0.08:
            column, value = rng.choice(
                (
                    ("id", ""),
                    ("id", "  "),
                    ("id", f"r{rng.randint(0, max(i - 1, 0))}"),
                    ("group", ""),
                    ("group", "t"),
                    ("y_true", "maybe"),
                    ("y_pred", ""),
                    ("score", " high "),
                    ("score", "1.5"),
                    ("score", "-0.1"),
                    ("score", "nan"),
                    ("score", "inf"),
                )
            )
            cells[column] = value
        row = [cells[name] for name in header]
        # The last "group" or "y_pred" of a repeated header is the one read;
        # give the earlier one a value that would fail if it were used.
        for name in ("group", "y_pred"):
            if header.count(name) == 2:
                row[header.index(name)] = "decoy"
        if rng.random() < 0.1:
            row = row[: rng.randint(0, len(row))]  # short row: missing cells read as empty
        elif rng.random() < 0.1:
            row += ["extra", "cells"]
        writer.writerow(row)
    return out.getvalue()


def write(text: str, directory: Path, bom: bool = False) -> str:
    path = directory / "data.csv"
    path.write_bytes(("\ufeff" if bom else "").encode("utf-8") + text.encode("utf-8"))
    return str(path)


DECLARATIONS = (None, ("p", "q", "r", "s"), ("s", "r", "q", "p", "unused"), ("q", "p"), ("p", "q", "p"))


@pytest.mark.parametrize("faults", (False, True))
def test_seeded_csvs_match_oracle(tmp_path: Path, faults: bool) -> None:
    rng = random.Random(20260 + faults)
    seen = {"ok": 0, "error": 0}
    for _ in range(300):
        path = write(seeded_csv(rng, faults), tmp_path, bom=rng.random() < 0.2)
        kind, _ = assert_matches_oracle(path, rng.choice(DECLARATIONS))
        seen[kind] += 1
    # The draws reach both outcomes, so both paths were compared.
    assert seen["ok"] > 30 and seen["error"] > 30


# ---------------------------------------------------------------------------
# Hypothesis CSVs
# ---------------------------------------------------------------------------

CELL = st.sampled_from(
    ["", " ", "a", "b", "p", "q", "1", "0", "YES", " no ", "+", "-", "0.5", "2", "x,y", 'q"', "a\nb"]
)


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.sampled_from(["id", "group", "y_true", "y_pred", "score", "x"]), max_size=7),
    rows=st.lists(st.lists(CELL, max_size=8), max_size=12),
    groups=st.sampled_from([None, ("p", "q"), ("a", "b", "p", "q", "1"), ("p", "p")]),
    bom=st.booleans(),
)
def test_written_csvs_match_oracle(
    header: list[str], rows: list[list[str]], groups: tuple[str, ...] | None, bom: bool
) -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)  # an empty row is a blank line
    with tempfile.TemporaryDirectory() as directory:
        assert_matches_oracle(write(out.getvalue(), Path(directory), bom), groups)


@settings(max_examples=300, deadline=None)
@given(
    body=st.text(alphabet=',"\n\r a1pqYN0.-\ufeff', max_size=80),
    score=st.booleans(),
    groups=st.sampled_from([None, ("p", "q"), ("a", "p", "q", "1")]),
)
def test_raw_text_matches_oracle(body: str, score: bool, groups: tuple[str, ...] | None) -> None:
    """Arbitrary text after the header: stray quotes, bare carriage returns,
    a BOM character mid-file."""
    header = "id,group,y_true,y_pred" + (",score" if score else "") + "\n"
    with tempfile.TemporaryDirectory() as directory:
        assert_matches_oracle(write(header + body, Path(directory)), groups)


# ---------------------------------------------------------------------------
# Fixed cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, groups, expected",
    [
        ("", None, "file is empty; header row required"),
        ("\nid,group,y_true,y_pred\na,p,1,1\n", None, "missing column(s): id, group, y_true, y_pred"),
        ("id,group,y_true\na,p,1\n", None, "missing column(s): y_pred"),
        ("id,group,y_true,y_pred\n\n\n", None, "no data rows"),
        ("id,group,y_true,y_pred\n,,,\n", None, ":2: empty id"),
        ("id,group,y_true,y_pred\n\na,p,1\n", None, ":3: cannot parse y_pred=''"),
        ('id,group,y_true,y_pred\n"a\n\nb",p,1,1\n"a\n\nb",p,1,1\n', None, ":7: duplicate id"),
        ("id,group,y_true,y_pred\na, ,1,1\n", None, ":2: empty group"),
        ("id,group,y_true,y_pred\na,p,1,1\nb,r,1,1\n", ("p", "q"), ":3: group 'r' not among"),
        ("id,group,y_true,y_pred\na,p,x,y\n", None, ":2: cannot parse y_true='x'"),
        ("id,group,y_true,y_pred,score\na,p,1,1,nan\n", None, ":2: score for 'a' must lie"),
        ("id,group,y_true,y_pred,score\na,p,1,1, 1e9\n", None, ":2: score for 'a' must lie"),
        ("id,group,y_true,y_pred,score\na,p,1,1,0..5\n", None, ":2: cannot parse score='0..5'"),
        ("id,group,y_true,y_pred\na,p,1,1\n", ("p", "p"), "declared groups repeat a label"),
        ("id,group,y_true,y_pred\n", ("p", "p"), "no data rows"),
        ("id,group,y_true,y_pred\nb,r,1,1\n", ("p", "p"), "group 'r' not among"),
        ('id,group,y_true,y_pred\na,p,1,1\n\nb,"p' + "x" * 131_072, None, ":4: field larger than"),
    ],
)
def test_error_cases_match_oracle(
    tmp_path: Path, text: str, groups: tuple[str, ...] | None, expected: str
) -> None:
    kind, message = assert_matches_oracle(write(text, tmp_path), groups)
    assert kind == "error" and expected in message


def test_declared_order_and_empty_groups(tmp_path: Path) -> None:
    text = "id,group,y_true,y_pred\na,q,1,1\nb,p,0,0\nc,q,yes,NO\n"
    path = write(text, tmp_path)
    g = ingest_counts(path, CsvSchema(groups=("r", "p", "s", "q")))
    assert counted(g) == (
        [("p", ConfusionMatrix(0, 0, 0, 1)), ("q", ConfusionMatrix(1, 0, 1, 0))],
        ("r", "s"),
    )
    assert counted(ingest_counts(path)) == (
        [("q", ConfusionMatrix(1, 0, 1, 0)), ("p", ConfusionMatrix(0, 0, 0, 1))],
        (),
    )
    assert_matches_oracle(path, ("r", "p", "s", "q"))


def test_repeated_header_reads_last_column(tmp_path: Path) -> None:
    # The first y_pred column holds a value no encoding matches.
    path = write("id,group,y_pred,y_true,y_pred\na,p,bad,1,0\n", tmp_path)
    assert ingest_counts(path)["p"] == ConfusionMatrix(0, 0, 1, 0)
    # A short row leaves the last y_pred column empty, whatever the first holds.
    with pytest.raises(InputError, match=r":2: cannot parse y_pred=''"):
        ingest_counts(write("id,group,y_pred,y_true,y_pred\nb,q,0,0\n", tmp_path))


def test_ingest_counts_matches_tabulate_at_scale(tmp_path: Path) -> None:
    g = GroupedConfusion({f"g{i}": ConfusionMatrix(i, 2 * i, 3, 40 - i) for i in range(1, 9)})
    path = tmp_path / "big.csv"
    export_csv(synthesize_dataset(g), str(path))
    assert counted(ingest_counts(str(path))) == counted(g)
    assert counted(tabulate(ingest_csv(str(path)))) == counted(g)


# ---------------------------------------------------------------------------
# Commands that need only counts build no records
# ---------------------------------------------------------------------------


def test_count_commands_build_no_records(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    g = GroupedConfusion({"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)})
    path = str(tmp_path / "before.csv")
    export_csv(synthesize_dataset(g), path)

    def forbidden(*args: Any, **kwargs: Any) -> Any:
        raise AssertionError("a per-row record was built")

    monkeypatch.setattr(ingest, "Record", forbidden)

    def run(*argv: str) -> tuple[int, str]:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            return main(list(argv)), err.getvalue()

    assert run("audit", path) == (0, "")
    assert run("counterexample", path) == (0, "")
    assert run("attack", "reservoir", path, "--group", "q", "--z-max", "13") == (0, "")
    # The patch does bite: the swap attack needs records.
    with pytest.raises(AssertionError, match="record was built"):
        run("attack", "swap", path, "--group", "p")
