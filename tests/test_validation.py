"""Argument checks, one table row each with the exception it raises and its
exact message: the reservoir split, a matrix scaled by 0, a grouped table with
a value that is not a matrix, an empty group that holds one or an empty group
listed twice, a hand-built record's score that is out of range, a str or a
bool, a joint's repeated label, repeated variable, key off its grid and
unknown variable, a map's empty mapping or repeated variable, an empty side of
a deviation, a property id that is a bool or a float, and property 3 given a
map that is not from Z onto Y. Also property 2's vacuous verdict, the CLI's
exit on a path it cannot read, and the one rule that every check comparing
groups refuses a table of one group by, in the library and through the CLI.
"""

import errno
import os
import re
from typing import Any, Callable

import pytest

from fairaudit import cli
from fairaudit.adversary import ReservoirPlan, reservoir_attack
from fairaudit.confusion import ConfusionMatrix, Dataset, GroupedConfusion, Record
from fairaudit.conservativeness import (
    check_joint_independence_iff,
    find_break,
    perfect_predictor_holds,
)
from fairaudit.distributions import (
    VACUOUS,
    DeterministicMap,
    FiniteJoint,
    check_ci_property,
    ci_deviation,
)
from fairaudit.errors import InputError, PreconditionError
from fairaudit.measures import (
    evaluate_measure,
    independence,
    separation,
    sufficiency,
)
from fairaudit.report import build_report

BIN = ("0", "1")

#: X and Y equal and Z constant: X is as far from independent of Y given Z as it gets.
COUPLED = FiniteJoint(
    (("X", BIN), ("Y", BIN), ("Z", ("z",))), {("0", "0", "z"): 1, ("1", "1", "z"): 1}
)

REFUSED: dict[str, tuple[Callable[[], Any], type, str]] = {
    "reservoir-negative-split": (
        lambda: ReservoirPlan(3, -1, 4), InputError, "reservoir split must be nonnegative"
    ),
    "reservoir-split-not-z": (
        lambda: ReservoirPlan(3, 1, 1), InputError, "z must equal z_plus + z_minus"
    ),
    "matrix-scaled-by-0": (
        lambda: ConfusionMatrix(1, 2, 3, 4).scaled(0),
        InputError,
        "scale factor must be a positive integer",
    ),
    "grouped-value-not-a-matrix": (
        lambda: GroupedConfusion({"p": ConfusionMatrix(1, 2, 3, 4), "q": (2, 2, 3, 4)}),
        InputError,
        "matrix of group 'q' must be a ConfusionMatrix, got (2, 2, 3, 4)",
    ),
    "grouped-empty-group-with-a-matrix": (
        lambda: GroupedConfusion({"p": ConfusionMatrix(1, 2, 3, 4)}, ("q", "p")),
        InputError,
        "empty group 'p' also holds a matrix",
    ),
    "grouped-empty-group-repeated": (
        lambda: GroupedConfusion(
            {"p": ConfusionMatrix(1, 2, 3, 4), "r": ConfusionMatrix(1, 2, 3, 4)}, ("q", "q")
        ),
        InputError,
        "empty groups repeat a label: ('q', 'q')",
    ),
    "dataset-score-above-one": (
        lambda: Dataset.from_records([Record("r", "p", True, True, 1.5)]),
        InputError,
        "score for 'r' must lie in [0, 1], got 1.5",
    ),
    "dataset-score-a-str": (
        lambda: Dataset.from_records([Record("r", "p", True, True, "0.5")]),
        InputError,
        "score for 'r' must lie in [0, 1], got '0.5'",
    ),
    "dataset-score-a-bool": (
        lambda: Dataset.from_records([Record("r", "p", True, True, True)]),
        InputError,
        "score for 'r' must lie in [0, 1], got True",
    ),
    "joint-repeated-label": (
        lambda: FiniteJoint((("X", ("0", "1", "0")),), {("0",): 1}),
        InputError,
        "variable 'X' repeats domain labels: ('0', '1', '0')",
    ),
    "joint-repeated-variable": (
        lambda: FiniteJoint((("X", BIN), ("X", BIN)), {("0", "0"): 1}),
        InputError,
        "duplicate variable names: ['X', 'X']",
    ),
    "joint-key-off-the-grid": (
        lambda: FiniteJoint((("X", BIN), ("Y", BIN)), {("0", "1"): 1, ("0", "2"): 1}),
        InputError,
        "assignment ('0', '2') does not match declared variables",
    ),
    "joint-unknown-variable": (
        lambda: COUPLED.index("W"), InputError, "unknown variable 'W'; have ('X', 'Y', 'Z')"
    ),
    "map-empty": (
        lambda: DeterministicMap("X", "U", {}), InputError, "mapping must be nonempty"
    ),
    "map-source-is-target": (
        lambda: DeterministicMap("X", "X", {"0": "1"}),
        InputError,
        "source and target must be distinct variable names",
    ),
    "deviation-empty-side": (
        lambda: ci_deviation(COUPLED, (), "Y", "Z"),
        InputError,
        "left and right must each name at least one variable",
    ),
    "property-id-a-bool": (
        lambda: check_ci_property(True, COUPLED), InputError, "property id must be 1..5, got True"
    ),
    "property-id-a-float": (
        lambda: check_ci_property(1.0, COUPLED), InputError, "property id must be 1..5, got 1.0"
    ),
    "property-3-map-not-onto-y": (
        lambda: check_ci_property(3, COUPLED, DeterministicMap("X", "Y", {"0": "0", "1": "1"})),
        InputError,
        "property 3 needs a DeterministicMap from Z onto Y",
    ),
}


@pytest.mark.parametrize("case", REFUSED)
def test_each_check_raises_its_type_and_message(case: str) -> None:
    call, kind, message = REFUSED[case]
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def test_property_2_is_vacuous_when_its_premise_fails() -> None:
    h = DeterministicMap("X", "U", {"0": "a", "1": "b"})
    verdict = check_ci_property(2, COUPLED, h)
    assert (verdict.status, verdict.conclusions) == (VACUOUS, {})
    assert verdict.premises["x_indep_y_given_z"] > 0


@pytest.mark.parametrize(
    "name, code",
    [
        # Unlike a file without read permission, a directory cannot be read even by root.
        (".", errno.EISDIR),
        ("missing.csv", errno.ENOENT),
    ],
    ids=["directory", "missing-file"],
)
def test_audit_of_a_path_that_cannot_be_read_exits_two(tmp_path, capsys, name, code) -> None:
    path = tmp_path / name
    assert cli.main(["audit", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # The reason follows the path once; the path is not repeated after it.
    assert err == f"error: cannot read {path}: {os.strerror(code)}\n"


#: One group with every cell filled, so each check passes the preconditions
#: it tests before the group count; the perfect-predictor check needs b = c = 0.
ONE_GROUP = GroupedConfusion({"p": ConfusionMatrix(1, 1, 1, 1)})
ONE_PERFECT_GROUP = GroupedConfusion({"p": ConfusionMatrix(1, 0, 0, 1)})
TWO_GROUPS_NEEDED = "fairness measures need at least two groups, got ('p',)"

ONE_GROUP_CHECKS: dict[str, Callable[[], Any]] = {
    "independence": lambda: independence(ONE_GROUP),
    "sufficiency": lambda: sufficiency(ONE_GROUP),
    "separation": lambda: separation(ONE_GROUP),
    "evaluate_measure": lambda: evaluate_measure(ONE_GROUP, "separation"),
    "perfect_predictor_holds": lambda: perfect_predictor_holds(ONE_PERFECT_GROUP),
    "check_joint_independence_iff": lambda: check_joint_independence_iff(ONE_GROUP),
    "find_break": lambda: find_break(ONE_GROUP, 0.05, 2),
    "reservoir_attack": lambda: reservoir_attack(ONE_GROUP, "p", 100),
    "build_report": lambda: build_report(ONE_GROUP, 1e-9, 2),
}


@pytest.mark.parametrize("check", ONE_GROUP_CHECKS)
def test_one_group_is_refused_by_every_check_alike(check: str) -> None:
    with pytest.raises(PreconditionError, match=f"^{re.escape(TWO_GROUPS_NEEDED)}$"):
        ONE_GROUP_CHECKS[check]()


@pytest.mark.parametrize(
    "command",
    [("audit",), ("audit", "--find-break"), ("counterexample",), ("attack", "reservoir")],
    ids=" ".join,
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_one_group_csv_exits_two(tmp_path, capsys, command, fmt) -> None:
    path = tmp_path / "one-group.csv"
    path.write_text("id,group,y_true,y_pred\nr1,p,1,1\nr2,p,0,1\nr3,p,1,0\n")
    argv = [*command, str(path), "--format", fmt]
    if command[0] == "attack":
        argv += ["--group", "p"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {TWO_GROUPS_NEEDED}\n")
