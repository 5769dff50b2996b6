"""``output_checker`` re-derives each JSON audit golden, and a fresh run of
each, from its printed matrices, imports only the standard library, and
implies the exit code in ``golden/status.json``. Two audits that no golden
shows go through it too: a gap exactly at eps, and a NOT-COMPARABLE measure
beside two that hold. It checks the counts of each JSON check-props golden and
of a fresh run of each the same way, and of a run at an eps wide enough that
the non-proportional suite fails, which exits 1."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from builders import export_csv, synthesize_dataset
from output_checker import Mismatch, check_audit, check_props
from test_golden import CASES, GOLDEN, expected_run, run_case
from test_imports import imported_modules

from fairaudit.cli import main
from fairaudit.confusion import ConfusionMatrix, GroupedConfusion

AUDITS = sorted(name for name in CASES if name.startswith("audit-") and "-error-" not in name)
PROPS = sorted(name for name in CASES if name.startswith("check-props"))


def test_the_checker_imports_only_the_standard_library():
    source = (Path(__file__).parent / "output_checker.py").read_text(encoding="utf-8")
    tops = {name.split(".")[0] for name in imported_modules(source)}
    assert sorted(tops - set(sys.stdlib_module_names)) == []


def test_every_json_audit_golden_is_checked():
    assert len(AUDITS) == 7


def test_every_json_props_golden_is_checked():
    assert len(PROPS) == 3


@pytest.mark.parametrize("name", AUDITS)
def test_audit_output_is_what_its_matrices_imply(tmp_path: Path, name: str) -> None:
    code, stdout, _ = run_case(name, "json", tmp_path)
    expected_code = expected_run(name, "json")[0]
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert check_audit(json.loads(golden)) == expected_code
    assert check_audit(json.loads(stdout)) == code == expected_code


@pytest.mark.parametrize("name", PROPS)
def test_props_output_counts_add_up(tmp_path: Path, name: str) -> None:
    code, stdout, _ = run_case(name, "json", tmp_path)
    expected_code = expected_run(name, "json")[0]
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert check_props(json.loads(golden)) == expected_code
    assert check_props(json.loads(stdout)) == code == expected_code


def test_failing_props_run_implies_exit_code_1() -> None:
    # At eps 0.5 every non-proportional table reads as jointly independent.
    argv = ["check-props", "--seed", "1", "--count", "10", "--eps", "0.5", "--format", "json"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    printed = json.loads(out.getvalue())
    assert printed["joint_independence"]["nonproportional"]["failures"] == 10
    assert check_props(printed) == code == 1


#: name -> (matrices, --eps, exit code). At eps 0.25 the PPV and FNR gaps are
#: exactly 1/4 and every measure holds; on two groups without predicted
#: positives PPV is undefined, so sufficiency is NOT-COMPARABLE and the audit
#: fails although independence and separation hold.
EDGE_AUDITS = {
    "gap-at-eps": ({"p": (1, 1, 1, 1), "q": (3, 1, 1, 1)}, "0.25", 0),
    "not-comparable-beside-holds": ({"p": (0, 0, 1, 1), "q": (0, 0, 1, 1)}, "1e-9", 1),
}


@pytest.mark.parametrize("name", EDGE_AUDITS)
def test_edge_audit_is_what_its_matrices_imply(tmp_path: Path, name: str) -> None:
    matrices, eps, expected_code = EDGE_AUDITS[name]
    g = GroupedConfusion({group: ConfusionMatrix(*m) for group, m in matrices.items()})
    export_csv(synthesize_dataset(g), str(tmp_path / "in.csv"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["audit", str(tmp_path / "in.csv"), "--eps", eps, "--format", "json"])
    assert check_audit(json.loads(out.getvalue())) == code == expected_code


#: An edit of the audit-failing golden, and the name of the value it breaks.
EDITS = {
    "cell": (lambda out: out["matrices"]["p"].update(a=12), "group_sizes"),
    "all-hold": (lambda out: out.update(all_hold=True), "all_hold"),
    "witness": (
        lambda out: out["measures"]["separation"].update(witnesses=["p", "p"]), "separation"
    ),
    "equivalent": (
        lambda out: out["conservativeness"]["joint_independence"].update(equivalent=False),
        "joint_independence",
    ),
}


@pytest.mark.parametrize("edit", EDITS)
def test_an_edited_value_is_a_mismatch(edit: str) -> None:
    out = json.loads((GOLDEN / "audit-failing.json").read_text(encoding="utf-8"))
    change, broken = EDITS[edit]
    change(out)
    with pytest.raises(Mismatch, match=f"^{broken}$"):
        check_audit(out)


#: An edit of the seed-5 check-props golden, and the count it breaks.
PROPS_EDITS = {
    "failures-total": (lambda out: out.update(failures_total=1), "failures_total"),
    "instances": (
        lambda out: out["perfect_predictor"].update(instances=299), "perfect_predictor instances"
    ),
    "vacuous": (lambda out: out["ci_properties"]["3"].update(vacuous=1), "ci_properties 3 vacuous"),
    "failures": (
        lambda out: out["joint_independence"]["proportional"].update(failures=301),
        "joint_independence proportional failures",
    ),
}


@pytest.mark.parametrize("edit", PROPS_EDITS)
def test_an_edited_count_is_a_mismatch(edit: str) -> None:
    out = json.loads((GOLDEN / "check-props-seed-5.json").read_text(encoding="utf-8"))
    change, broken = PROPS_EDITS[edit]
    change(out)
    with pytest.raises(Mismatch, match=f"^{broken}$"):
        check_props(out)
