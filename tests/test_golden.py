"""Golden CLI outputs: exit code, stdout and stderr of every command.

Each case runs ``main`` in-process in both formats. The expected stdout of a
case is ``golden/<case>.<format>``; its exit code and stderr are in
``golden/status.json``. Inputs are built here from fixed matrices and records,
so the goldens pin the whole path from CSV to rendered output.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from fairaudit.cli import export_csv, main
from fairaudit.confusion import (
    ConfusionMatrix,
    Dataset,
    GroupedConfusion,
    synthesize_dataset,
)

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json")

PASSING = {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}
FAILING = {"p": ConfusionMatrix(11, 2, 2, 11), "q": ConfusionMatrix(21, 4, 5, 22)}
PERFECT = {"p": ConfusionMatrix(5, 0, 0, 7), "q": ConfusionMatrix(3, 0, 0, 2)}
SPARSE = {"p": ConfusionMatrix(1, 1, 1, 1), "r": ConfusionMatrix(2, 1, 1, 2)}
SCORED = {"p": ConfusionMatrix(8, 3, 4, 5), "q": ConfusionMatrix(6, 4, 3, 7)}


def scored_dataset() -> Dataset:
    """Forty rows with fixed, spread-out scores (two share a score)."""
    ds = synthesize_dataset(GroupedConfusion(SCORED))
    records = [
        replace(rec, score=((i * 17) % 40) / 40 if i != 39 else 0.5)
        for i, rec in enumerate(ds.records)
    ]
    return Dataset(records=tuple(records), groups=ds.groups)


#: case name -> (input dataset or None, CLI arguments; ``{csv}`` is the input).
CASES = {
    "audit-passing": (PASSING, ("audit", "{csv}")),
    "audit-failing": (FAILING, ("audit", "{csv}")),
    "audit-perfect": (PERFECT, ("audit", "{csv}")),
    "audit-find-break": (PASSING, ("audit", "{csv}", "--find-break")),
    "audit-empty-group": (SPARSE, ("audit", "{csv}", "--groups", "p,q,r")),
    "demo": (None, ("demo",)),
    "attack-reservoir": (
        PASSING,
        ("attack", "reservoir", "{csv}", "--group", "q", "--z-max", "13"),
    ),
    "attack-swap": (scored_dataset, ("attack", "swap", "{csv}", "--group", "p")),
    "check-props": (None, ("check-props", "--seed", "7", "--count", "10")),
    "counterexample-witness": (PASSING, ("counterexample", "{csv}")),
    "counterexample-none": (PERFECT, ("counterexample", "{csv}")),
}


def run_case(name: str, fmt: str, workdir: Path) -> tuple[int, str, str]:
    source, argv = CASES[name]
    csv_path = workdir / f"{name}.csv"
    if source is not None:
        ds = source() if callable(source) else synthesize_dataset(GroupedConfusion(source))
        export_csv(ds, str(csv_path))
    args = [arg.replace("{csv}", str(csv_path)) for arg in argv] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue().replace(str(workdir), "<dir>")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tmp_path: Path, name: str, fmt: str) -> None:
    code, stdout, stderr = run_case(name, fmt, tmp_path)
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert [code, stderr] == status[f"{name}.{fmt}"]
    assert stdout == expected
