"""Tests for CSV ingestion, the command surface, and exit codes."""

import errno
import inspect
import io
import json
import math
import os
import sys
import time
from contextlib import redirect_stdout

import pytest
from builders import export_csv, synthesize_dataset

from fairaudit import cli, conservativeness
from fairaudit.cli import main
from fairaudit.confusion import (
    ConfusionMatrix,
    Dataset,
    GroupedConfusion,
    Record,
    tabulate,
)
from fairaudit.errors import InputError
from fairaudit.ingest import CsvSchema, ingest_counts, ingest_csv
from fairaudit.report import render

BEFORE = GroupedConfusion(
    {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}
)
AFTER = GroupedConfusion(
    {"p": ConfusionMatrix(11, 2, 2, 11), "q": ConfusionMatrix(21, 4, 5, 22)}
)


@pytest.fixture
def before_csv(tmp_path):
    path = tmp_path / "before.csv"
    export_csv(synthesize_dataset(BEFORE), str(path))
    return str(path)


@pytest.fixture
def after_csv(tmp_path):
    path = tmp_path / "after.csv"
    export_csv(synthesize_dataset(AFTER), str(path))
    return str(path)


@pytest.fixture
def scored_csv(tmp_path):
    path = tmp_path / "scored.csv"
    records = [
        Record("x", "p", True, False, 0.6),
        Record("xstar", "p", True, True, 0.9),
        Record("p3", "p", False, False, 0.3),
        Record("q1", "q", True, True, 0.8),
        Record("q2", "q", False, False, 0.2),
    ]
    export_csv(Dataset.from_records(records), str(path))
    return str(path)


#: Files the csv module cannot read, and what ingest says after the file name.
UNREADABLE = {
    "utf16": (
        "id,group,y_true,y_pred\n1,p,1,1\n".encode("utf-16"),
        ": not UTF-8 text (invalid start byte)",
    ),
    "unterminated quote": (
        b'id,group,y_true,y_pred\n1,p,1,1\n2,"p' + b"x" * 131_072,
        ":3: field larger than field limit (131072)",
    ),
}


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestIngest:
    def test_one_row_per_cell(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text(
            "id,group,y_true,y_pred\n"
            "1,g,1,1\n2,g,0,1\n3,g,1,0\n4,g,0,0\n"
        )
        ds = ingest_csv(str(path))
        assert len(ds.records) == 4
        assert tabulate(ds)["g"] == ConfusionMatrix(1, 1, 1, 1)

    def test_before_tables_realization(self, before_csv):
        ds = ingest_csv(before_csv)
        g = tabulate(ds)
        assert g["p"] == ConfusionMatrix(10, 2, 3, 11)
        assert g["q"] == ConfusionMatrix(20, 4, 6, 22)

    def test_unparseable_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,group,y_true,y_pred\n1,g,1,1\n2,g,maybe,0\n")
        with pytest.raises(InputError, match=r"bad\.csv:3.*maybe"):
            ingest_csv(str(path))

    def test_line_after_blank_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("id,group,y_true,y_pred\n1,p,1,1\n\n2,p,maybe,1\n")
        with pytest.raises(InputError, match=r"blank\.csv:4.*maybe"):
            ingest_csv(str(path))

    def test_line_after_multiline_quoted_field(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('id,group,y_true,y_pred\n1,"p\nq",1,1\n2,p,maybe,1\n')
        with pytest.raises(InputError, match=r"quoted\.csv:4.*maybe"):
            ingest_csv(str(path))

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("id,group,y_true\n1,g,1\n")
        with pytest.raises(InputError, match="y_pred"):
            ingest_csv(str(path))

    def test_duplicate_id_listed(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,group,y_true,y_pred\n7,g,1,1\n7,g,0,0\n")
        with pytest.raises(InputError, match="duplicate id '7'"):
            ingest_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="header"):
            ingest_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("id,group,y_true,y_pred\n")
        with pytest.raises(InputError, match="no data rows"):
            ingest_csv(str(path))

    def test_bad_score_reports_line(self, tmp_path):
        path = tmp_path / "score.csv"
        path.write_text("id,group,y_true,y_pred,score\n1,g,1,1,high\n")
        with pytest.raises(InputError, match=r"score\.csv:2.*high"):
            ingest_csv(str(path))

    def test_out_of_range_score_reports_line(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("id,group,y_true,y_pred,score\n1,g,1,1,1.5\n")
        with pytest.raises(InputError, match=r"range\.csv:2"):
            ingest_csv(str(path))

    def test_custom_encodings(self, tmp_path):
        path = tmp_path / "enc.csv"
        path.write_text("id,group,y_true,y_pred\n1,g,hired,rejected\n")
        schema = CsvSchema(positive_labels=("hired",), negative_labels=("rejected",))
        ds = ingest_csv(str(path), schema)
        assert ds.records[0].y is True
        assert ds.records[0].r is False

    def test_declared_groups_catch_typos(self, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("id,group,y_true,y_pred\n1,P,1,1\n")
        with pytest.raises(InputError, match="not among declared"):
            ingest_csv(str(path), CsvSchema(groups=("p", "q")))

    def test_many_declared_groups_stay_fast(self, tmp_path):
        # 40k rows in 20k declared groups took 7.25 s with a tuple membership test per row.
        groups = tuple(f"g{k}" for k in range(20_000))
        rows = "id,group,y_true,y_pred\n" + "".join(f"{i},g{i // 2},1,0\n" for i in range(40_000))
        path = tmp_path / "many.csv"
        path.write_text(rows)
        start = time.perf_counter()
        ds = ingest_csv(str(path), CsvSchema(groups=groups))
        assert time.perf_counter() - start < 3.0
        assert ds.groups == groups and len(ds.records) == 40_000
        path.write_text(rows + "40000,g20000,1,0\n")
        with pytest.raises(InputError) as info:
            ingest_csv(str(path), CsvSchema(groups=groups))
        assert str(info.value) == (
            f"{path}:40002: group 'g20000' not among declared groups {groups}"
        )

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffid,group,y_true,y_pred\n1,g,1,0\n", encoding="utf-8")
        ds = ingest_csv(str(path))
        assert ds.records[0].id == "1"
        assert tabulate(ds)["g"] == ConfusionMatrix(0, 0, 1, 0)

    def test_encodings_match_whatever_their_case_and_padding(self, tmp_path):
        path = tmp_path / "yn.csv"
        path.write_text("id,group,y_true,y_pred\n1,g,Y,N\n2,g, n ,y\n")
        schema = CsvSchema(positive_labels=("Y",), negative_labels=(" N ",))
        assert (schema.positive_labels, schema.negative_labels) == (("y",), ("n",))
        assert ingest_counts(str(path), schema)["g"] == ConfusionMatrix(0, 1, 1, 0)
        assert tabulate(ingest_csv(str(path), schema))["g"] == ConfusionMatrix(0, 1, 1, 0)

    def test_overlapping_encodings_rejected(self):
        with pytest.raises(InputError, match="'0'"):
            CsvSchema(positive_labels=("1", "0"))

    def test_encodings_differing_only_in_case_overlap(self):
        with pytest.raises(InputError, match="'y' listed as both"):
            CsvSchema(positive_labels=("Y",), negative_labels=("y ",))

    def test_overlapping_encodings_exit_two(self, before_csv, capsys):
        code, out = run_cli("audit", before_csv, "--positive-labels", "1,0")
        assert (code, out) == (2, "")
        assert "'0'" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [("1", ""), ("1", "  ")])
    def test_empty_encoding_rejected(self, labels):
        with pytest.raises(InputError, match="nonempty"):
            CsvSchema(positive_labels=labels)

    def test_empty_encoding_exit_two(self, tmp_path, capsys):
        path = tmp_path / "unlabelled.csv"
        path.write_text("id,group,y_true,y_pred\n1,p,,1\n2,q,1,1\n")
        code, out = run_cli("audit", str(path), "--positive-labels", "1,")
        assert (code, out) == (2, "")
        assert "nonempty" in capsys.readouterr().err

    @pytest.mark.parametrize("groups", [("p", ""), ("p", " \t")])
    def test_empty_declared_group_rejected(self, groups):
        with pytest.raises(InputError, match="empty label"):
            CsvSchema(groups=groups)

    @pytest.mark.parametrize("groups", ["p,q,", ",p,q", "p,,q", " "])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_declared_group_exit_two(self, before_csv, capsys, groups, fmt):
        code, out = run_cli("audit", before_csv, "--groups", groups, "--format", fmt)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: --groups lists an empty label, which no record's group can match\n"
        )

    @pytest.mark.parametrize("option", ["--groups", "--positive-labels", "--negative-labels"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_explicitly_empty_option_exit_two(self, before_csv, capsys, option, fmt):
        code, out = run_cli("audit", before_csv, f"{option}=", "--format", fmt)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: --groups lists an empty label, which no record's group can match\n"
            if option == "--groups"
            else "error: label encodings must be nonempty (an empty one matches empty cells)\n"
        )

    @pytest.mark.parametrize("unreadable", sorted(UNREADABLE))
    def test_unreadable_file_rejected_by_both_sinks(self, tmp_path, unreadable):
        path = tmp_path / "bad.csv"
        path.write_bytes(UNREADABLE[unreadable][0])
        for ingest in (ingest_counts, ingest_csv):
            with pytest.raises(InputError) as info:
                ingest(str(path))
            assert str(info.value) == f"{path}{UNREADABLE[unreadable][1]}"

    @pytest.mark.parametrize("unreadable", sorted(UNREADABLE))
    @pytest.mark.parametrize("command", ["audit", "attack"])
    def test_unreadable_file_exit_two(self, tmp_path, capsys, unreadable, command):
        path = tmp_path / "bad.csv"
        path.write_bytes(UNREADABLE[unreadable][0])
        argv = ["audit", str(path)]
        if command == "attack":
            argv = ["attack", "swap", str(path), "--group", "p"]
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {path}{UNREADABLE[unreadable][1]}\n"

    def test_roundtrip_lossless(self, tmp_path, scored_csv):
        ds = ingest_csv(scored_csv)
        path = tmp_path / "again.csv"
        export_csv(ds, str(path))
        assert ingest_csv(str(path)) == ds


class TestAuditCommand:
    def test_exit_zero_when_all_hold(self, before_csv):
        code, out = run_cli("audit", before_csv)
        assert code == 0
        assert "HOLDS" in out

    def test_exit_one_when_any_fails(self, after_csv):
        code, out = run_cli("audit", after_csv)
        assert code == 1
        assert "FAILS" in out
        assert "2/325" in out
        assert "1/26" in out

    def test_exit_two_on_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _ = run_cli("audit", str(path))
        assert code == 2

    def test_json_format_parses(self, before_csv):
        code, out = run_cli("audit", before_csv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        assert payload["measures"]["sufficiency"]["status"] == "holds"
        assert payload["input"]["group_sizes"] == {"p": 26, "q": 52}

    def test_find_break_flag_reports_witness(self, before_csv):
        code, out = run_cli("audit", before_csv, "--find-break", "--format", "json")
        assert code == 0  # the input itself passes; the witness is informational
        payload = json.loads(out)
        witness = payload["break_search"]["witness"]
        assert witness["broken"] == ["sufficiency", "separation"]
        assert witness["increment"] == [
            {"group": "p", "direction": "fn_to_tp", "count": 1},
            {"group": "q", "direction": "fn_to_tp", "count": 1},
        ]

    def test_empty_declared_group_warns(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "id,group,y_true,y_pred\n"
            "1,p,1,1\n2,p,0,1\n3,p,1,0\n4,p,0,0\n"
            "5,r,1,1\n6,r,0,1\n7,r,1,0\n8,r,0,0\n"
        )
        code, out = run_cli("audit", str(path), "--groups", "p,q,r")
        assert "excluded: q" in out


class TestDemoCommand:
    def test_exit_zero_and_headline_numbers(self):
        code, out = run_cli("demo")
        assert code == 0
        assert "11/13" in out and "21/25" in out
        assert "2/325" in out
        assert "1/26" in out
        assert "sufficiency broken" in out
        assert "separation broken" in out

    def test_loose_eps_reports_holds(self):
        code, out = run_cli("demo", "--eps", "0.1")
        assert code == 0
        assert "gap 2/325 (0.006154) -> sufficiency holds" in out
        assert "gap 1/26 (0.038462) -> separation holds" in out
        assert "broken" not in out

    def test_byte_identical_reruns(self):
        assert run_cli("demo") == run_cli("demo")
        assert run_cli("demo", "--format", "json") == run_cli("demo", "--format", "json")

    def test_json_highlights(self):
        _, out = run_cli("demo", "--format", "json")
        payload = json.loads(out)
        assert payload["highlights"]["ppv_gap"]["exact"] == "2/325"
        assert payload["highlights"]["fnr_gap"]["exact"] == "1/26"
        assert payload["highlights"]["fpr_gap"]["exact"] == "0"
        assert payload["before"]["all_hold"] is True
        assert payload["after"]["all_hold"] is False


class TestAttackCommand:
    def test_reservoir_success(self, before_csv):
        code, out = run_cli(
            "attack", "reservoir", before_csv, "--group", "q", "--z-max", "13"
        )
        assert code == 0
        assert "z_plus=10" in out
        assert "z_minus=3" in out

    def test_reservoir_infeasible_exit_three(self, before_csv, capsys):
        code, _ = run_cli(
            "attack", "reservoir", before_csv, "--group", "q", "--z-max", "1"
        )
        assert code == 3
        assert "multiple of 13" in capsys.readouterr().err

    def test_reservoir_json(self, before_csv):
        _, out = run_cli(
            "attack", "reservoir", before_csv, "--group", "q", "--z-max", "13",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["plan"] == {"z": 13, "z_plus": 10, "z_minus": 3}
        assert payload["after"]["q"] == {"a": 30, "b": 4, "c": 9, "d": 22}
        assert payload["separation_after"]["status"] == "holds"
        assert payload["independence_after"]["status"] == "fails"

    def test_swap_success(self, scored_csv):
        code, out = run_cli("attack", "swap", scored_csv, "--group", "p")
        assert code == 0
        assert "confusion matrices unchanged: yes" in out
        assert "swapped pair flagged: yes" in out

    def test_swap_json(self, scored_csv):
        _, out = run_cli(
            "attack", "swap", scored_csv, "--group", "p", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["swapped_pair"] == ["x", "xstar"]
        assert payload["matrices_unchanged"] is True
        assert payload["lipschitz"]["swapped_pair_flagged"] is True

    @pytest.mark.parametrize(
        "false_negative_score, flagged",
        [("0.25", False), (repr(math.nextafter(0.25, 1.0)), True)],
    )
    def test_swapped_pair_at_the_boundary(self, tmp_path, false_negative_score, flagged):
        # At --scale 0.5 the pair is 1.0 apart, where D = 1 <= d holds; one
        # float closer, it violates. Group q's one record is unscored, so
        # the swapped pair is the only pair scanned.
        path = tmp_path / "edge.csv"
        path.write_text(
            "id,group,y_true,y_pred,score\n"
            f"x,p,1,0,{false_negative_score}\nxstar,p,1,1,0.75\nq1,q,1,1,\n"
        )
        _, out = run_cli(
            "attack", "swap", str(path), "--group", "p", "--scale", "0.5", "--format", "json"
        )
        lipschitz = json.loads(out)["lipschitz"]
        assert lipschitz["swapped_pair_flagged"] is flagged
        listed = [v["ids"] for v in lipschitz["violations"]]
        assert listed == ([["x", "xstar"]] if flagged else [])
        if flagged:
            assert lipschitz["violations"][0]["individual_distance"] == math.nextafter(1.0, 0.0)

    def test_swap_rows_reach_render_as_scan_rows(self, scored_csv, monkeypatch):
        # Converting every row to a JSON object would cost time on large scans,
        # so the writer must get the very list the scan returned.
        scans, seen = [], {}
        scan = cli.lipschitz_violations

        def scanned(*args, **kwargs):
            scans.append(scan(*args, **kwargs))
            return scans[-1]

        def spied(payload):
            seen["rows"] = payload["lipschitz"].violations
            return render(payload)

        monkeypatch.setattr(cli, "lipschitz_violations", scanned)
        monkeypatch.setattr(cli, "render", spied)
        code, _ = run_cli("attack", "swap", scored_csv, "--group", "p", "--format", "json")
        assert code == 0
        assert seen["rows"] and seen["rows"] is scans[0].violations
        assert all(type(row) is tuple for row in seen["rows"])

    def test_swap_infeasible_exit_three(self, tmp_path, capsys):
        path = tmp_path / "nofn.csv"
        path.write_text(
            "id,group,y_true,y_pred,score\n1,p,1,1,0.9\n2,p,0,0,0.1\n3,q,1,1,0.5\n"
        )
        code, _ = run_cli("attack", "swap", str(path), "--group", "p")
        assert code == 3


class TestCheckPropsCommand:
    def test_reruns_identical_and_floor_echoed(self):
        first = run_cli("check-props", "--seed", "7", "--count", "10")
        second = run_cli("check-props", "--seed", "7", "--count", "10")
        assert first == second
        code, out = first
        assert code == 0
        assert "positivity floor 0.001" in out
        assert "seed = 7" in out
        assert "total failures: 0" in out

    def test_json_structure(self):
        code, out = run_cli(
            "check-props", "--seed", "7", "--count", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 7
        assert payload["failures_total"] == 0
        assert payload["ci_properties"]["5"]["positivity_floor"] == 0.001
        for k in "12345":
            assert payload["ci_properties"][k]["failures"] == 0
            assert payload["ci_properties"][k]["non_vacuous"] == 5

    def test_different_seeds_differ(self):
        _, first = run_cli("check-props", "--seed", "1", "--count", "5", "--format", "json")
        _, second = run_cli("check-props", "--seed", "2", "--count", "5", "--format", "json")
        # Same shape, same pass counts; instances differ but reports agree
        # because only aggregates are printed.
        assert json.loads(first)["seed"] != json.loads(second)["seed"]


class TestCounterexampleCommand:
    def test_finds_unit_increment(self, before_csv):
        code, out = run_cli("counterexample", before_csv)
        assert code == 0
        assert "p: 1 FN->TP, q: 1 FN->TP" in out
        assert "broken: sufficiency, separation" in out

    def test_none_within_budget(self, tmp_path):
        perfect = GroupedConfusion(
            {"p": ConfusionMatrix(5, 0, 0, 7), "q": ConfusionMatrix(3, 0, 0, 2)}
        )
        path = tmp_path / "perfect.csv"
        export_csv(synthesize_dataset(perfect), str(path))
        code, out = run_cli("counterexample", str(path))
        assert code == 0
        assert "NONE" in out

    def test_precondition_failure_exit_two(self, after_csv, capsys):
        code, _ = run_cli("counterexample", after_csv)
        assert code == 2
        assert "sufficiency" in capsys.readouterr().err


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ("demo", "--eps", "nan"),
            ("demo", "--eps", "inf"),
            ("demo", "--eps", "-0.1"),
            ("demo", "--eps", "abc"),
            ("demo", "--eps", ""),
            ("check-props", "--count", "-3"),
            ("check-props", "--count", "1.5"),
            ("check-props", "--count", "abc"),
            ("check-props", "--count", ""),
            ("counterexample", "data.csv", "--budget", "1.5"),
            ("counterexample", "data.csv", "--budget", "-1"),
            ("audit", "data.csv", "--find-break", "--budget", "-1"),
            ("attack", "reservoir", "data.csv", "--group", "q", "--z-max", "-1"),
        ],
    )
    def test_rejected_with_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ">= 0" in captured.err
        assert f"got {argv[-1]!r}" in captured.err

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "abc", ""])
    def test_scale_must_be_finite_and_positive(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "swap", "data.csv", "--group", "p", "--scale", scale])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected a finite number > 0, got {scale!r}" in captured.err


class TestDeterminism:
    def test_every_command_is_byte_identical(self, before_csv, scored_csv):
        invocations = [
            ("audit", before_csv),
            ("audit", before_csv, "--format", "json"),
            ("audit", before_csv, "--find-break"),
            ("demo",),
            ("demo", "--format", "json"),
            ("attack", "reservoir", before_csv, "--group", "q", "--z-max", "13"),
            ("attack", "swap", scored_csv, "--group", "p", "--format", "json"),
            ("check-props", "--seed", "42", "--count", "10"),
            ("counterexample", before_csv, "--format", "json"),
        ]
        for argv in invocations:
            assert run_cli(*argv) == run_cli(*argv), argv


class FullStdout(io.StringIO):
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutputErrors:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_write_error_exits_two_with_message(self, scored_csv, capsys, monkeypatch, fmt):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(["attack", "swap", scored_csv, "--group", "p", "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
        )


class TestBenchmarkReplayContract:
    """What the benchmark relies on. Its in-process replay wraps functions
    where ``cli`` binds them, binds their arguments by name, and reads
    ``len`` of the rendered text, of ``.violations``, of ``ingest_csv``'s
    ``.records``, and the ``score`` of each record of the scan's ``ds``, and
    it counts the break search's increments through
    ``conservativeness.apply_increment``. Its
    own tests build records by keyword, datasets with
    ``Dataset.from_records`` and read ``swap_attack(...).after``. A change
    that breaks one of these fails here by name, not in a benchmark run."""

    @staticmethod
    def spy(monkeypatch, names):
        """Wrap ``cli``'s bindings of ``names``; return the list of
        ``(name, bound arguments, result)`` of every call through them."""
        calls = []

        def wrap(name):
            fn = getattr(cli, name)
            signature = inspect.signature(fn)

            def spied(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.append((name, signature.bind(*args, **kwargs).arguments, result))
                return result

            monkeypatch.setattr(cli, name, spied)

        for name in names:
            wrap(name)
        return calls

    def test_swap_call_sites(self, scored_csv, monkeypatch):
        calls = self.spy(monkeypatch, ("render", "lipschitz_violations"))
        code, out = run_cli("attack", "swap", scored_csv, "--group", "p", "--format", "json")
        assert code == 0
        found = {name: (arguments, result) for name, arguments, result in calls}
        _, rendered = found["render"]
        assert isinstance(rendered, str) and rendered == out
        arguments, report = found["lipschitz_violations"]
        listed = json.loads(out)["lipschitz"]["violations"]
        assert len(listed) > 0
        assert len(report.violations) == len(listed)
        again = cli.lipschitz_violations(ds=arguments["ds"], scale=arguments["scale"])
        assert len(again.violations) == len(listed)

    def test_swap_layers_are_called_through_cli(self, scored_csv, monkeypatch):
        layers = ("ingest_csv", "tabulate", "swap_attack", "lipschitz_violations")
        calls = self.spy(monkeypatch, layers)
        code, _ = run_cli("attack", "swap", scored_csv, "--group", "p", "--format", "json")
        assert code == 0
        assert [name for name, _, _ in calls] == [
            "ingest_csv", "tabulate", "swap_attack", "tabulate", "lipschitz_violations"
        ]
        _, _, ingested = calls[0]
        assert len(ingested.records) == 5
        _, arguments, _ = calls[-1]
        assert set(arguments) >= {"ds", "scale"}
        assert [rec.score for rec in arguments["ds"].records] == [0.6, 0.9, 0.3, 0.8, 0.2]

    def test_benchmark_tests_build_records_by_keyword(self):
        assert (cli.CsvSchema, cli.ingest_csv) == (CsvSchema, ingest_csv)
        records = [
            Record(id="fn", group="g", y=True, r=False, score=0.25),
            Record(id="tp", group="g", y=True, r=True, score=0.75),
        ]
        after = cli.swap_attack(Dataset.from_records(records), "g").after
        assert tabulate(after).matrices == tabulate(Dataset.from_records(records)).matrices
        assert len(cli.lipschitz_violations(after).violations) == 1

    def test_find_break_applies_its_witness_through_the_module(self, monkeypatch):
        # The replay counts the search's increments by replacing
        # conservativeness.apply_increment, which the search now calls only
        # to build its witness.
        applied = []
        apply = conservativeness.apply_increment

        def spied(g, increment):
            applied.append(increment)
            return apply(g, increment)

        monkeypatch.setattr(conservativeness, "apply_increment", spied)
        witness = cli.find_break(BEFORE, 1e-9, 2)
        assert witness is not None and applied == [witness.increment]
        assert witness.after == apply(BEFORE, witness.increment)
