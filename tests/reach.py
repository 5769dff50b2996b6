"""Which of the package's functions no command enters.

The script traces every function call, with ``sys.settrace`` call events only,
while ``cli.main`` runs in-process on:

* every case of ``test_golden.CASES`` in both formats;
* ``--version``, ``--help`` and ``audit --help``;
* ``check-props --count 300`` at seeds 1, 3 and 42 in both formats.

The trace starts before the package is imported, so functions that run at
import time count as entered. The script prints each function defined in
``src/fairaudit`` that was never entered, with its line count. It exits 1 when
that set differs from ``LIBRARY_ONLY``, the names kept for the library alone,
each with its reason in its docstring. So a function that no command runs
lands only once it is listed there on purpose, and a listed one that a
command starts to run must leave the list.

Run from the repository root (about 4 s on a 2-vCPU Xeon; pytest does not
collect this file):

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import sys

ENTERED: set = set()


def _enter(frame, event, arg):
    ENTERED.add(frame.f_code)  # returns None: no line or return events


sys.settrace(_enter)

import ast  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from test_golden import CASES, FORMATS, case_argv  # noqa: E402

import fairaudit  # noqa: E402
from fairaudit import cli  # noqa: E402

#: ``module.qualname`` of every function that no command runs.
LIBRARY_ONLY = (
    "cli.run",
    "confusion.ConfusionMatrix.scaled",
    "confusion.Dataset.from_records",
    "confusion.to_joint",
    "conservativeness.check_proportional_preservation",
    "conservativeness.group_multipliers",
    "distributions.FiniteJoint.__new__",
    "distributions.check_ci_property",
    "distributions.ci_deviation",
)


def command_runs(workdir: Path) -> list[list[str]]:
    """The argument lists of every traced run."""
    runs = [case_argv(name, fmt, workdir) for name in sorted(CASES) for fmt in FORMATS]
    runs += [["--version"], ["--help"], ["audit", "--help"]]
    runs += [
        ["check-props", "--seed", seed, "--count", "300", "--format", fmt]
        for seed in ("1", "3", "42")
        for fmt in FORMATS
    ]
    return runs


def run_main(argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # argparse's --version and --help
            pass


def functions(path: Path) -> dict[int, tuple[str, int]]:
    """Each function of a module by its code's first line (its first
    decorator's): its qualified name and its line count."""
    found: dict[int, tuple[str, int]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = (prefix + child.name, child.end_lineno - first + 1)
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        runs = command_runs(Path(workdir))
        for argv in runs:
            run_main(argv)
    sys.settrace(None)
    entered = {(code.co_filename, code.co_firstlineno) for code in ENTERED}
    unreached = {}
    for path in sorted(Path(fairaudit.__file__).parent.glob("*.py")):
        for first, (name, lines) in functions(path).items():
            if (str(path), first) not in entered:
                unreached[name] = lines
    for name, lines in unreached.items():
        print(f"{name}: {lines} lines")
    lines = sum(unreached.values())
    print(f"{len(unreached)} functions, {lines} lines, never entered in {len(runs)} runs")
    unexpected = sorted(set(unreached) - set(LIBRARY_ONLY))
    reached = sorted(set(LIBRARY_ONLY) - set(unreached))
    if unexpected:
        print(f"not in LIBRARY_ONLY, so no command runs them: {unexpected}")
    if reached:
        print(f"in LIBRARY_ONLY, but entered or missing: {reached}")
    return 1 if unexpected or reached else 0


if __name__ == "__main__":
    sys.exit(main())
