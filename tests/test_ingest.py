"""Count-first CSV ingest against the row-at-a-time ingest it replaced.

The oracle below is the previous ``CsvSchema.parse_label``, ``ingest_csv``
and ``tabulate``, with the previous ``Record`` and ``Dataset`` (its
validation and ``from_records``) from ``dataset_oracle``, kept verbatim apart
from their names: it went through
``csv.DictReader``, built one validated record per row, validated the whole
dataset a second time and only then counted. Both sinks of the new row
parser must give what it gave, on seeded and hypothesis-generated CSVs:
``ingest_counts`` and ``tabulate(ingest_csv(...))`` the same matrices, group
order and dropped groups, ``ingest_csv`` the same records, and every
rejected file the same ``InputError`` message, physical line included. Where
the oracle let the csv module's own error through, ingest now raises that
error's message as an ``InputError`` with the file and line. A declared
universe that repeats a label is the one deliberate difference: the oracle
found it only after reading the whole file, and only if no row failed first;
``CsvSchema`` now refuses it before the file is opened. Declared group labels
are the other: ``CsvSchema`` strips them, as it strips encodings and as the
CLI always did, where the oracle kept them as given, so that a label declared
with surrounding space matched no row and ``("a", " a")`` passed as two labels.
"""

from __future__ import annotations

import csv
import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from builders import export_csv, synthesize_dataset
from dataset_oracle import OracleDataset, OracleRecord

from fairaudit import ingest
from fairaudit.cli import main
from fairaudit.confusion import ConfusionMatrix, Dataset, GroupedConfusion, tabulate
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
    if groups is not None and len(set(groups)) != len(groups):
        return outcome(lambda: CsvSchema(groups=groups))
    schema = CsvSchema(groups=groups)
    old_ds = oracle_outcome(path, groups)
    old = outcome(lambda: counted(oracle_tabulate(old_ds[1]))) if old_ds[0] == "ok" else old_ds
    assert outcome(lambda: counted(ingest_counts(path, schema))) == old
    assert outcome(lambda: counted(tabulate(ingest_csv(path, schema)))) == old
    new_ds = outcome(lambda: ingest_csv(path, schema))
    if old_ds[0] == "ok":
        assert new_ds[0] == "ok"
        assert rows_of(new_ds[1].records) == rows_of(old_ds[1].records)
        # Undeclared, the groups are tabulate's to derive: compared above.
        assert new_ds[1].groups == groups
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
    own_groups = rng.random() < 0.2  # nearly every row in a group of its own
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=rng.choice(("\n", "\r\n")))
    writer.writerow(header)
    for i in range(rng.randint(0, 30)):
        if rng.random() < 0.1:
            out.write(rng.choice(("\n", "\r\n")))  # blank line
        y, r = rng.random() < 0.5, rng.random() < 0.5
        cells = {
            "id": f"r{i}" if rng.random() < 0.9 else f"r\n{i}",
            "group": (f" g{i}" if own_groups else rng.choice(GROUPS))
            if rng.random() < 0.95
            else "q\nq",
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
    body=st.text(alphabet=',"\n\r a1pqYN0.-\ufeff\x1c', max_size=80),
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
        ("id,group,y_true,y_pred\n", ("p", "p"), "declared groups repeat a label"),
        ("id,group,y_true,y_pred\nb,r,1,1\n", ("p", "p"), "declared groups repeat a label"),
        ('id,group,y_true,y_pred\na,p,1,1\n\nb,"p' + "x" * 131_072, None, ":4: field larger than"),
    ],
)
def test_error_cases_match_oracle(
    tmp_path: Path, text: str, groups: tuple[str, ...] | None, expected: str
) -> None:
    kind, message = assert_matches_oracle(write(text, tmp_path), groups)
    assert kind == "error" and expected in message


# ---------------------------------------------------------------------------
# Each raw (group, y_true, y_pred) triple is checked once
# ---------------------------------------------------------------------------

#: 500 valid rows in three groups, with labels spelled five ways.
MANY = "".join(
    f"r{i},{('p', ' q ', 'g0')[i % 3]},{('Yes', ' no ', '1')[i % 4 % 3]},{('0', 'TRUE')[i % 2]},\n"
    for i in range(500)
)
#: 3000 valid rows, each in a group of its own, with y_true spelled 30 ways.
SPREAD = "".join(
    f"s{i},u{i},{' ' * (i % 5)}{('1', 'no', 'TRUE')[i % 3]}{' ' * (i % 6)},{('0', 'yes')[i % 2]},\n"
    for i in range(3000)
)


@pytest.mark.parametrize("groups", (None, ("p", "q", "g0"), ("g0", "q", "unused", "p")))
@pytest.mark.parametrize(
    "body, expected, undeclared",
    [
        # A triple seen valid, then a failing row, then the same triple again.
        ("a,p,1,0,\nb,p,1,maybe,\nc,p,1,0,\n", ":3: cannot parse y_pred='maybe'", None),
        ("a,p,1,0,\nb,p,nope,0,\nc,p,1,0,\n", ":3: cannot parse y_true='nope'", None),
        ("a,p,1,0,\na,p,1,0,\nc,p,1,0,\n", ":3: duplicate id 'a'", None),
        ("a,p,1,0,\nb,p,1,0,2\nc,p,1,0,\n", ":3: score for 'b' must lie", None),
        ("a,p,1,0,\nb, ,1,0,\nc,p,1,0,\n", ":3: empty group", None),
        ("a,p,1,0,\nb,t,1,0,\nc,p,1,0,\n", ":3: group 't' not among", "ok"),
        # The failing row spells a seen triple's cells anew.
        ("a,p,1,0,\nb, p ,1,x,\nc,p,1,0,\n", ":3: cannot parse y_pred='x'", None),
        # A bad spelling that first appears after many valid rows.
        (MANY + "z,p,Yes,nope,\n", ":502: cannot parse y_pred='nope'", None),
        (MANY + "z, q ,Yse,0,\n", ":502: cannot parse y_true='Yse'", None),
        (MANY + "z,r,1,0,\n", ":502: group 'r' not among", "ok"),
        (MANY + "z,g0,1,0,7\n", ":502: score for 'z' must lie", None),
        # A bad row after thousands of valid ones whose groups never repeat.
        *(
            pytest.param(SPREAD + tail, ":2: group 'u0' not among", undeclared, id=f"spread-{name}")
            for name, tail, undeclared in (
                ("y_pred", "z,p,1,maybe,\n", ":3002: cannot parse y_pred='maybe'"),
                ("group", "z, ,1,0,\n", ":3002: empty group"),
                ("id", "s9,p,1,0,\n", ":3002: duplicate id 's9'"),
                ("score", "z,u7,1,0,x\n", ":3002: cannot parse score='x'"),
            )
        ),
        # Raw spellings that normalise to the same key.
        ("a,p,Yes,YES,\nb,p, yes ,yes,\nc,p,YES, Yes ,\nd,p,yes,YES,\n", "ok", None),
        ("a,g0,1,0,\nb, g0 ,1,0,\nc,g0 ,1,0,\nd,\tg0,1,0,\n", "ok", None),
        ("a, g0 ,Yes,no,\nb,g0,YES,NO,\nc, g0 , yes , no ,\nd,q,Yes,no,\n", "ok", None),
        # Groups come in order of first appearance, whichever spelling that is.
        ("a, q ,1,0,\nb,p,1,0,\nc,q,yes,0,\nd,\tq ,0,1,\ne, p,1,1,\nf,g0 ,1,1,\n", "ok", None),
        ("a,p ,1,0,\nb,g0,1,0,\nc, p,1,0,\nd, q,1,0,\ne,p,0,0,\nf, g0,1,1,\n", "ok", None),
    ],
)
def test_each_triple_is_checked_once(
    tmp_path: Path,
    body: str,
    expected: str,
    undeclared: str | None,
    groups: tuple[str, ...] | None,
) -> None:
    # ``undeclared`` is the outcome with no groups declared, where it differs.
    path = write("id,group,y_true,y_pred,score\n" + body, tmp_path)
    kind, value = assert_matches_oracle(path, groups)
    if groups is None and undeclared is not None:
        expected = undeclared
    if expected == "ok":
        assert kind == "ok"
    else:
        assert kind == "error" and f"{path}{expected}" in value


def test_declared_groups_are_stripped(tmp_path: Path) -> None:
    path = write("id,group,y_true,y_pred\na,a,1,1\nb, b ,0,1\nc,c,1,0\n", tmp_path)
    schema = CsvSchema(groups=(" a", "b ", "\tc"))
    assert schema.groups == ("a", "b", "c")
    cells = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    matrices = [(group, ConfusionMatrix(*cell)) for group, cell in zip("abc", cells)]
    assert counted(ingest_counts(path, schema)) == (matrices, ())
    assert rows_of(ingest_csv(path, schema).records) == [
        ("a", "a", True, True, None),
        ("b", "b", False, True, None),
        ("c", "c", True, False, None),
    ]
    # The oracle kept the labels as given, so no row of group a matched.
    assert oracle_outcome(path, (" a", "b ", "\tc")) == (
        "error",
        f"InputError: {path}:2: group 'a' not among declared groups (' a', 'b ', '\\tc')",
    )
    with pytest.raises(InputError, match=r":4: group 'c' not among declared groups \('a', 'b'\)"):
        ingest_counts(path, CsvSchema(groups=("a ", " b")))
    with pytest.raises(InputError, match="declared groups repeat a label"):
        CsvSchema(groups=("a", " a"))
    with pytest.raises(InputError, match="empty label"):
        CsvSchema(groups=("a", " "))
    # The CLI stripped --groups itself before; its output is unchanged.
    outputs = []
    for groups in ("a,b,c", " a, b ,c\t"):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            outputs.append((main(["audit", path, "--groups", groups]), out.getvalue()))
    assert outputs[0] == outputs[1] and outputs[0][0] in (0, 1)


def test_an_empty_group_universe_is_refused_up_front() -> None:
    # By the schema, before any file is read, as Dataset.from_records refuses it.
    with pytest.raises(InputError, match="at least one group must be declared"):
        CsvSchema(groups=())
    with pytest.raises(InputError, match="at least one group must be declared"):
        Dataset.from_records((), groups=())


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

    forbidden._make = forbidden  # type: ignore[attr-defined]
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


@pytest.mark.parametrize("body", ["", "a,p,1,1\n", "a,q,1,1\n", "a,p,maybe,1\n"])
@pytest.mark.parametrize("command", ["audit", "counterexample"])
def test_repeated_declared_group_is_refused_before_any_row(
    tmp_path: Path, body: str, command: str
) -> None:
    # The repeat is refused before any row is read, so neither an empty
    # file, a row of an undeclared group nor an unparseable row hides it.
    path = write("id,group,y_true,y_pred\n" + body, tmp_path)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, path, "--groups", "p,p"])
    assert (code, err.getvalue()) == (2, "error: declared groups repeat a label\n")
