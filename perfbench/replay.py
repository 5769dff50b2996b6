"""Run one fairaudit CLI command in-process, with spans around each layer call.

    python3 perfbench/replay.py --out FILE --run-id ID [--memory] -- CLI-ARGS...

fairaudit is imported from ``PYTHONPATH``. The command runs through
``fairaudit.cli.main``, so stdout and the exit code are the CLI's own; the
functions each ``cmd_*`` calls are wrapped where they are imported, which
gives one span per call into a layer. Spans stay in memory until the command
ends and are then written to FILE as JSON.

With ``--memory`` no spans are recorded. Instead tracemalloc runs for the
whole command, and FILE gets the peak memory each of CSV ingest and the
Lipschitz scan allocated above what was live when it was called. Tracemalloc
slows the program several-fold, so these peaks never come from a timed run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import tracemalloc
from typing import Any, Callable

from spans import Measure, Tracer
from workloads import candidate_count

MEASURE_FNS = ("independence", "sufficiency", "separation")
JOINT = "conservativeness.check_joint_independence_iff"


def _candidates(arguments: dict[str, Any], _result: Any) -> dict[str, int]:
    return {"candidates": candidate_count(len(arguments["g"].groups), arguments["budget"])}


def _lipschitz(arguments: dict[str, Any], result: Any) -> dict[str, int]:
    scored = sum(rec.score is not None for rec in arguments["ds"].records)
    return {"pairs": scored * (scored - 1) // 2, "violations": len(result.violations)}


def layer_calls() -> list[tuple[Any, str, str, Measure | None]]:
    """``(owner, attribute, span name, measure)`` for every call site the
    benchmark wraps. Owners are the modules (or class) the CLI reaches the
    function through. The generators are the ``random_*`` functions the CLI
    imports from ``fairaudit.generators``; a placeholder that no owner has
    stands for them if there are none, so that they are reported missing."""
    from fairaudit import adversary, cli, conservativeness, generators, report

    calls: list[tuple[Any, str, str, Measure | None]] = [
        (cli, "ingest_csv", "cli.ingest_csv", lambda a, r: {"rows": len(r.records)}),
        (cli, "tabulate", "confusion.tabulate", None),
        (cli, "build_report", "report.build_report", None),
        (cli, "render", "report.render", lambda a, r: {"bytes": len(r)}),
        (cli, "break_payload", "report.render", None),
        (cli, "break_text", "report.render", None),
        (report.FairnessReport, "payload", "report.render", None),
        (report.FairnessReport, "text", "report.render", None),
        (cli, "find_break", "conservativeness.find_break", _candidates),
        (report, "find_break", "conservativeness.find_break", _candidates),
        (cli, "check_joint_independence_iff", JOINT, None),
        (report, "check_joint_independence_iff", JOINT, None),
        (cli, "swap_attack", "adversary.swap_attack", None),
        (cli, "lipschitz_violations", "adversary.lipschitz_violations", _lipschitz),
        (
            cli,
            "check_ci_property",
            "distributions.check_ci_property",
            lambda a, r: {"non_vacuous": int(r.status != "vacuous")},
        ),
    ]
    measure_sites = (
        (cli, MEASURE_FNS),
        (report, MEASURE_FNS),
        (conservativeness, MEASURE_FNS),
        (adversary, ("independence", "separation")),
        (generators, ("sufficiency", "separation")),
    )
    calls += [
        (module, fn, "measures.verdict", None) for module, fns in measure_sites for fn in fns
    ]
    sources = [
        (cli, attr, "generators", None)
        for attr, value in vars(cli).items()
        if attr.startswith("random_") and getattr(value, "__module__", "") == generators.__name__
    ]
    return calls + (sources or [(cli, "random_*", "generators", None)])


#: Replaces one call site's function: ``wrap(fn, span name, measure or None)``.
Wrap = Callable[[Callable[..., Any], str, Any], Callable[..., Any]]


def install(wrap: Wrap) -> list[str]:
    """Replace every call site by ``wrap(fn, name, measure)``; return the
    call sites this version of fairaudit does not have (the benchmark counts
    each as an error, since its layer would read 0)."""
    missing = []
    for owner, attr, name, measure in layer_calls():
        fn = vars(owner).get(attr)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
        else:
            setattr(owner, attr, wrap(fn, name, measure))
    return missing


def trace(argv: list[str], run_id: str) -> tuple[int, dict[str, Any]]:
    from fairaudit import cli, conservativeness

    tracer = Tracer(run_id)
    missing = install(tracer.wrap)
    conservativeness.apply_increment = tracer.count(
        conservativeness.apply_increment, "conservativeness.find_break.feasible"
    )
    code = tracer.wrap(cli.main, "cli.main")(argv)
    return code, {**tracer.dump(), "missing": missing}


PEAK_CALLS = {"cli.ingest_csv", "adversary.lipschitz_violations"}


def memory(argv: list[str]) -> tuple[int, dict[str, Any]]:
    from fairaudit import cli

    peaks: dict[str, float] = {name: 0.0 for name in PEAK_CALLS}

    def wrap(fn: Callable[..., Any], name: str, _measure: Any) -> Callable[..., Any]:
        if name not in PEAK_CALLS:
            return fn

        @functools.wraps(fn)
        def measured(*args: Any, **kwargs: Any) -> Any:
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - live
            peaks[name] = max(peaks[name], peak / 2**20)
            return result

        return measured

    missing = install(wrap)
    tracemalloc.start()
    try:
        code = cli.main(argv)
    finally:
        tracemalloc.stop()
    return code, {"peak_mb": peaks, "missing": missing}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file receiving the spans or peaks as JSON")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--memory", action="store_true", help="measure peak memory, not spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    code, record = memory(argv) if args.memory else trace(argv, args.run_id)
    sys.stdout.flush()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
