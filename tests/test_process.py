"""The real process entry: ``python -m fairaudit.cli`` in a child process.

Every other CLI test calls ``main`` in-process. Here each child runs with
buffered streams (``PYTHONUNBUFFERED`` removed from its environment), so these
tests show that the process entry, which ends the process with ``os._exit``
once the output is flushed, loses no output, keeps every exit code and reports
a failed write of stdout as an output error, exit 2, on one stderr line. The
failed write is also checked with ``PYTHONUNBUFFERED`` set, where the write
itself fails, argparse's own output of ``--version`` and ``--help`` included.
An output of many ``cli.OUTPUT_SLICE`` slices must reach stdout whole, and a
pipe closed after the first slice is an output error too.
"""

import errno
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from builders import scored_rows_csv
from test_golden import case_argv, expected_run

from fairaudit import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Golden cases run as a process: exit codes 0 to 3, a warning on stderr, both formats.
GOLDEN_CASES = [
    ("demo", "text"),  # exit 0
    ("audit-failing", "json"),  # exit 1
    ("audit-error-bad-y-pred", "text"),  # exit 2, an input error
    ("attack-swap-infeasible", "json"),  # exit 3
    ("counterexample-empty-group", "text"),  # exit 0 and a warning on stderr
]

#: argparse's own exits: its output text, and a usage error on stderr.
ARGPARSE_CASES = {"version": ["--version"], "usage-error": ["audit"]}


def child_env(unbuffered: bool = False) -> dict[str, str]:
    """This environment with the package importable and stdout buffered, or
    unbuffered through ``PYTHONUNBUFFERED``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(argv: list[str], unbuffered: bool = False, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "fairaudit.cli", *argv], env=child_env(unbuffered), **kwargs
    )


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """``main``'s exit code, stdout and stderr, argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def process_runs(tmp_path_factory) -> dict[str, tuple[int, str, str]]:
    """Every case's exit code, stdout and stderr as a process; the children
    run side by side, so the module costs about as much as its slowest child."""
    workdir = tmp_path_factory.mktemp("process")
    argvs = {f"{name}.{fmt}": case_argv(name, fmt, workdir) for name, fmt in GOLDEN_CASES}
    argvs.update(ARGPARSE_CASES)
    children = {
        case: spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for case, argv in argvs.items()
    }
    runs = {}
    for case, child in children.items():
        out, err = child.communicate(timeout=60)
        stderr = err.decode("utf-8").replace(str(workdir), "<dir>")
        runs[case] = child.returncode, out.decode("utf-8"), stderr
    return runs


@pytest.mark.parametrize("name, fmt", GOLDEN_CASES, ids=[f"{n}.{f}" for n, f in GOLDEN_CASES])
def test_process_matches_golden(process_runs, name, fmt):
    assert process_runs[f"{name}.{fmt}"] == expected_run(name, fmt)


@pytest.mark.parametrize("case", ARGPARSE_CASES)
def test_process_matches_argparse_in_process(process_runs, case):
    expected = in_process(ARGPARSE_CASES[case])
    assert expected[0] == (0 if case == "version" else 2)
    assert process_runs[case] == expected


#: Commands whose output fails to reach a full stdout: ``main``'s and argparse's own.
FULL_STDOUT_CASES = [["demo"], ["--version"], ["--help"]]


def failed_write(argv: list[str], unbuffered: bool) -> tuple[int, str]:
    """The exit code and stderr of a child whose stdout is ``/dev/full``."""
    with open("/dev/full", "w") as full:
        child = spawn(argv, unbuffered, stdout=full, stderr=subprocess.PIPE)
        _, err = child.communicate(timeout=60)
    return child.returncode, err.decode("utf-8")


#: The one stderr line of an output error on a full disk (ENOSPC).
FULL_DISK = (2, f"error: cannot write output: {os.strerror(28)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", FULL_STDOUT_CASES, ids=" ".join)
def test_failed_write_to_buffered_stdout_exits_two_on_one_line(argv):
    assert failed_write(argv, unbuffered=False) == FULL_DISK


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", FULL_STDOUT_CASES, ids=" ".join)
def test_failed_write_to_unbuffered_stdout_exits_two_on_one_line(argv):
    assert failed_write(argv, unbuffered=True) == FULL_DISK


@pytest.fixture(scope="module")
def dense_swap(tmp_path_factory) -> tuple[list[str], bytes]:
    """A JSON swap attack on 300 dense rows, and the bytes ``main`` writes
    for it in-process: about 4.6 MB, 70 slices."""
    path = scored_rows_csv(tmp_path_factory.mktemp("dense") / "dense.csv", 300)
    argv = ["attack", "swap", path, "--group", "g0", "--format", "json"]
    code, out, err = in_process(argv)
    assert (code, err) == (0, "") and len(out) >= 4 * cli.OUTPUT_SLICE
    json.loads(out)  # no slice dropped or repeated in-process
    return argv, out.encode("utf-8")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_output_of_many_slices_is_written_whole(dense_swap, unbuffered):
    argv, expected = dense_swap
    child = spawn(argv, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (0, b"")
    assert out == expected


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_pipe_closed_after_the_first_slice_exits_two_on_one_line(dense_swap, unbuffered):
    argv, expected = dense_swap
    child = spawn(argv, unbuffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = child.stdout.read(cli.OUTPUT_SLICE)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert first == expected[: cli.OUTPUT_SLICE]
    assert child.returncode == 2
    assert err.decode("utf-8") == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"


def test_console_script_and_main_block_call_one_entry():
    """The ``fairaudit`` script and ``python -m fairaudit.cli`` run the same
    function (a text read: ``tomllib`` is not in Python 3.10)."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    script = re.fullmatch(r'fairaudit = "fairaudit\.cli:(\w+)"\n*', scripts)
    source = (SRC / "fairaudit" / "cli.py").read_text(encoding="utf-8")
    block = re.search(r'\nif __name__ == "__main__":\n    (\w+)\(\)\n\Z', source)
    assert script and block, (scripts, source[-80:])
    assert script[1] == block[1] == cli.run.__name__
