"""Golden CLI outputs: exit code, stdout and stderr of every command.

Each case runs ``main`` in-process in both formats, and each run must build
only its own format: the other format's builders raise if called. The
expected stdout of a case is ``golden/<case>.<format>``; its exit code and
stderr are in ``golden/status.json``. Inputs are built here from fixed
matrices and records, or given as raw CSV text, so the goldens pin the whole
path from CSV to rendered output, error messages and their line numbers
included.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Any, Callable

import pytest
from builders import export_csv, synthesize_dataset

from fairaudit import cli, report
from fairaudit.cli import main
from fairaudit.confusion import (
    ConfusionMatrix,
    Dataset,
    GroupedConfusion,
)

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json")

PASSING = {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}
FAILING = {"p": ConfusionMatrix(11, 2, 2, 11), "q": ConfusionMatrix(21, 4, 5, 22)}
PERFECT = {"p": ConfusionMatrix(5, 0, 0, 7), "q": ConfusionMatrix(3, 0, 0, 2)}
SPARSE = {"p": ConfusionMatrix(1, 1, 1, 1), "r": ConfusionMatrix(2, 1, 1, 2)}
SCORED = {"p": ConfusionMatrix(8, 3, 4, 5), "q": ConfusionMatrix(6, 4, 3, 7)}
#: A perfect predictor where ``p`` has no predicted negatives and no actual
#: positives: sufficiency and separation are NOT-COMPARABLE (ppv and fnr of
#: ``p`` undefined), independence fails, and the break search is skipped.
NOT_COMPARABLE = {"p": ConfusionMatrix(0, 0, 0, 5), "q": ConfusionMatrix(3, 0, 0, 2)}


def scored_dataset() -> Dataset:
    """Forty rows with fixed, spread-out scores (two share a score)."""
    ds = synthesize_dataset(GroupedConfusion(SCORED))
    records = [
        rec._replace(score=((i * 17) % 40) / 40 if i != 39 else 0.5)
        for i, rec in enumerate(ds.records)
    ]
    return Dataset(records=tuple(records), groups=ds.groups)


#: Raw CSV with a BOM, label spellings in mixed case and padding, a blank
#: line and a newline quoted inside an id.
MIXED_LABELS_CSV = (
    "\ufeffid,group,y_true,y_pred,score\n"
    "a1,p,Yes,TRUE, 0.25\n"
    "a2,p, 1 ,no,\n"
    "\n"
    '"a\n3",p,no,yes,0.5\n'
    "a4,p,false,0,\n"
    "b1,q,TRUE,Yes,\n"
    "b2,q,0,1,\n"
    "b3,q, 1 ,False,\n"
    "b4,q,no,No,1\n"
    "b5,q,yes,+,0\n"
)

#: Raw CSV for ``attack swap`` on a group named like the payload key
#: ``violations``. Its ids need JSON escaping: a quote, a backslash, a
#: non-ASCII letter, an astral emoji, a quoted newline and a control
#: character. Two records of different predictions share a score (distance
#: 0, margin exactly 1.0), one distance is written in exponent form (1e-20)
#: and one record is unscored.
ESCAPED_IDS_CSV = (
    "id,group,y_true,y_pred,score\n"
    '"a""b",violations,1,0,0.25\n'
    "c\\d,violations,1,1,0.75\n"
    "\u00e9,violations,0,0,0.5\n"
    "\U0001f600,violations,1,1,0.5\n"
    '"n\nl",other,0,1,1e-20\n'
    "\x01,other,1,0,0\n"
    "x,other,0,0,\n"
)

#: The same kind of input where no two records of different predictions
#: share a score, so at ``--scale 1e-300`` no pair violates.
NO_VIOLATION_CSV = (
    "id,group,y_true,y_pred,score\n"
    '"a""b",violations,1,0,0.25\n'
    "c\\d,violations,1,1,0.75\n"
    "\u00e9,violations,0,0,0.5\n"
    '"n\nl",other,0,1,1e-20\n'
    "\x01,other,1,0,0\n"
    "x,other,0,0,\n"
)

#: Raw CSV that every command reading a CSV must reject with exit 2:
#: name -> (CSV text, extra CLI arguments). The blank line and the quoted
#: newline before a bad row pin physical line numbers.
BAD_CSVS = {
    "duplicate-id": (
        'id,group,y_true,y_pred\na,p,1,1\n\n"b\nb",q,0,0\na,q,1,0\n',
        (),
    ),
    "bad-y-pred": ("id,group,y_true,y_pred\na,p,1,1\n\nb,q,0,maybe\n", ()),
    "undeclared-group": (
        "id,group,y_true,y_pred\na,p,1,1\nb,q,0,0\nc,r,1,0\n",
        ("--groups", "p,q"),
    ),
    "score-out-of-range": (
        'id,group,y_true,y_pred,score\na,p,1,1,0.5\n"b\nb",q,0,0,1.5\n',
        (),
    ),
    "header-only": ("id,group,y_true,y_pred\n", ()),
}

#: The commands run on each of BAD_CSVS: name -> (arguments before and after the input).
CSV_COMMANDS = {
    "audit": (("audit",), ()),
    "counterexample": (("counterexample",), ()),
    "attack-swap": (("attack", "swap"), ("--group", "p")),
}

#: Raw CSV that ``attack swap`` refuses by group: record ``c`` of group ``q``
#: is unscored, and group ``p``'s one false negative outscores its one true
#: positive, so no swap exists there.
SWAP_REFUSALS_CSV = (
    "id,group,y_true,y_pred,score\n"
    "a,p,1,0,0.9\n"
    "b,p,1,1,0.4\n"
    "c,q,1,0,\n"
    "d,q,1,1,0.8\n"
)

#: case name -> (input: matrices, dataset factory, raw CSV text or None;
#: CLI arguments, where ``{csv}`` is the input).
CASES = {
    "audit-passing": (PASSING, ("audit", "{csv}")),
    "audit-failing": (FAILING, ("audit", "{csv}")),
    "audit-perfect": (PERFECT, ("audit", "{csv}")),
    "audit-find-break": (PASSING, ("audit", "{csv}", "--find-break")),
    "audit-not-comparable": (NOT_COMPARABLE, ("audit", "{csv}", "--find-break")),
    "audit-empty-group": (SPARSE, ("audit", "{csv}", "--groups", "p,q,r")),
    "demo": (None, ("demo",)),
    "attack-reservoir": (
        PASSING,
        ("attack", "reservoir", "{csv}", "--group", "q", "--z-max", "13"),
    ),
    "attack-swap": (scored_dataset, ("attack", "swap", "{csv}", "--group", "p")),
    "check-props": (None, ("check-props", "--seed", "7", "--count", "10")),
    "check-props-seed-5": (None, ("check-props", "--seed", "5", "--count", "300")),
    "check-props-seed-11": (None, ("check-props", "--seed", "11", "--count", "300")),
    "counterexample-witness": (PASSING, ("counterexample", "{csv}")),
    "counterexample-none": (PERFECT, ("counterexample", "{csv}")),
    "audit-mixed-labels": (MIXED_LABELS_CSV, ("audit", "{csv}")),
    "attack-swap-escaped-ids": (
        ESCAPED_IDS_CSV,
        ("attack", "swap", "{csv}", "--group", "violations"),
    ),
    "attack-swap-no-violation": (
        NO_VIOLATION_CSV,
        ("attack", "swap", "{csv}", "--group", "violations", "--scale", "1e-300"),
    ),
    "attack-swap-empty-group": (
        scored_dataset,
        ("attack", "swap", "{csv}", "--group", "p", "--groups", "p,q,r"),
    ),
    "attack-reservoir-empty-group": (
        PASSING,
        ("attack", "reservoir", "{csv}", "--group", "q", "--z-max", "13", "--groups", "p,q,r"),
    ),
    "counterexample-empty-group": (PASSING, ("counterexample", "{csv}", "--groups", "p,q,r")),
    "attack-swap-error-unscored": (
        SWAP_REFUSALS_CSV,
        ("attack", "swap", "{csv}", "--group", "q"),
    ),
    "attack-swap-error-unknown-group": (
        SWAP_REFUSALS_CSV,
        ("attack", "swap", "{csv}", "--group", "z"),
    ),
    "attack-swap-infeasible": (SWAP_REFUSALS_CSV, ("attack", "swap", "{csv}", "--group", "p")),
    **{
        f"{command}-error-{name}": (text, (*before, "{csv}", *after, *extra))
        for name, (text, extra) in BAD_CSVS.items()
        for command, (before, after) in CSV_COMMANDS.items()
    },
}


def run_case(name: str, fmt: str, workdir: Path) -> tuple[int, str, str]:
    source, argv = CASES[name]
    csv_path = workdir / f"{name}.csv"
    if isinstance(source, str):
        csv_path.write_bytes(source.encode("utf-8"))
    elif source is not None:
        ds = source() if callable(source) else synthesize_dataset(GroupedConfusion(source))
        export_csv(ds, str(csv_path))
    args = [arg.replace("{csv}", str(csv_path)) for arg in argv] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue().replace(str(workdir), "<dir>")


def refuse(name: str) -> Callable[..., Any]:
    def refused(*args: Any, **kwargs: Any) -> Any:
        raise AssertionError(f"{name} was called")

    return refused


#: What a run in each format must not call: the builders of the other
#: format, patched wherever ``main`` and the renderers look them up.
OTHER_FORMAT = {
    "text": [
        (report, "members"),
        (cli, "members"),
        (report, "render"),
        (cli, "render"),
        (report, "break_payload"),
        (report.FairnessReport, "payload"),
    ],
    "json": [
        (report.FairnessReport, "text"),
        (cli, "render_text"),
        (cli, "break_text"),
        *(
            (report, renderer)
            for renderer in ("break_text", "demo_text", "reservoir_text", "swap_text", "props_text")
        ),
    ],
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, name: str, fmt: str
) -> None:
    for owner, attr in OTHER_FORMAT[fmt]:
        monkeypatch.setattr(owner, attr, refuse(attr))
    code, stdout, stderr = run_case(name, fmt, tmp_path)
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert [code, stderr] == status[f"{name}.{fmt}"]
    assert stdout == expected
