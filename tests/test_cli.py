"""Tests for CSV ingestion, the command surface, and exit codes."""

import io
import json
from contextlib import redirect_stdout

import pytest

from fairaudit.cli import CsvSchema, export_csv, ingest_csv, main
from fairaudit.confusion import (
    ConfusionMatrix,
    Dataset,
    GroupedConfusion,
    Record,
    synthesize_dataset,
    tabulate,
)
from fairaudit.errors import InputError

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

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffid,group,y_true,y_pred\n1,g,1,0\n", encoding="utf-8")
        ds = ingest_csv(str(path))
        assert ds.records[0].id == "1"
        assert tabulate(ds)["g"] == ConfusionMatrix(0, 0, 1, 0)

    def test_overlapping_encodings_rejected(self):
        with pytest.raises(InputError, match="'0'"):
            CsvSchema(positive_labels=("1", "0"))

    def test_overlapping_encodings_exit_two(self, before_csv, capsys):
        code, out = run_cli("audit", before_csv, "--positive-labels", "1,0")
        assert (code, out) == (2, "")
        assert "'0'" in capsys.readouterr().err

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
            ("check-props", "--count", "-3"),
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

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_scale_must_be_finite_and_positive(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "swap", "data.csv", "--group", "p", "--scale", scale])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite number > 0" in captured.err


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
