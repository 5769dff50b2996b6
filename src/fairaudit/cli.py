"""Command-line interface: the parser, and one body per command that calls
the library and returns an exit code and one result. ``main`` writes only the
requested format of it; :mod:`fairaudit.report` decides every word of output.
``_emit`` writes every byte on stdout, argparse's ``--version`` and ``--help``
text too, in ``OUTPUT_SLICE`` slices. ``run``, the process entry, runs the
command without the cyclic collector and ends the process as soon as the
output is flushed.

Exit codes: 0 all requested measures hold (or the command completed),
1 a fairness measure failed (or a verification suite had failures),
2 input, precondition or output error, 3 infeasible attack.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import random
import sys
from typing import IO, Any, Callable, NoReturn, Sequence

from . import __version__
from .adversary import lipschitz_violations, reservoir_attack, swap_attack, violates
from .confusion import ConfusionMatrix, GroupedConfusion, tabulate
from .conservativeness import (
    FN_TO_TP,
    GroupShift,
    Increment,
    apply_increment,
    check_joint_independence_iff,
    find_break,
    perfect_predictor_holds,
)
# check_ci_property stays bound for perfbench/replay.py
from .distributions import EPS_DEFAULT, FAIL, VACUOUS, check_ci_property, ci_property_status
from .errors import AuditError, Infeasible
from .generators import (
    POSITIVITY_FLOOR,
    random_chain_instance,
    random_ci_instance,
    random_functional_instance,
    random_map,
    random_nonproportional_grouped,
    random_pair_ci_instance,
    random_perfect_grouped,
    random_product_instance,
    random_proportional_grouped,
)
from .ingest import CsvSchema, ingest_counts, ingest_csv
from .measures import independence, separation, sufficiency
from .report import (  # break_payload and break_text stay bound for perfbench/replay.py
    FORMATS,
    JSON,
    TEXT,
    CISuite,
    Counterexample,
    Demo,
    FlooredCISuite,
    JointIndependenceSuites,
    LipschitzCheck,
    PropertySuites,
    Suite,
    SwapAudit,
    break_payload,
    break_text,
    build_report,
    empty_groups_warning,
    header,
    members,
    render,
    render_text,
)

#: The worked two-group example used by ``demo``: sufficiency, separation and
#: independence all hold exactly, yet one FN->TP shift per group breaks the
#: first two while increasing accuracy in both groups.
DEMO_BEFORE = {
    "p": ConfusionMatrix(10, 2, 3, 11),
    "q": ConfusionMatrix(20, 4, 6, 22),
}

#: ``_emit`` writes stdout in slices of this many characters. Each slice's
#: encoded copy stays below glibc's 128 KiB mmap threshold, so it reuses heap
#: memory where one copy of a multi-megabyte output would land on fresh pages.
OUTPUT_SLICE = 64 * 1024


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _schema_from_args(args: argparse.Namespace) -> CsvSchema:
    """The schema of the options given; an empty value reaches ``CsvSchema``."""
    kwargs: dict[str, Any] = {}
    for option in ("positive_labels", "negative_labels", "groups"):
        if getattr(args, option) is not None:
            kwargs[option] = tuple(getattr(args, option).split(","))
    return CsvSchema(**kwargs)


def _load(args: argparse.Namespace) -> GroupedConfusion:
    return ingest_counts(args.input, _schema_from_args(args))


def _warned(g: GroupedConfusion) -> GroupedConfusion:
    """``g``, once its declared groups without records are named on stderr
    (audit names them in its output)."""
    if g.empty_groups:
        print(empty_groups_warning(g), file=sys.stderr)
    return g


def cmd_audit(args: argparse.Namespace) -> tuple[int, Any]:
    report = build_report(_load(args), args.eps, args.budget if args.find_break else None)
    return (0 if report.all_hold() else 1), report


def cmd_demo(args: argparse.Namespace) -> tuple[int, Any]:
    before = GroupedConfusion(DEMO_BEFORE)
    increment = Increment(tuple(GroupShift(group, FN_TO_TP, 1) for group in before.groups))
    after = apply_increment(before, increment)
    return 0, Demo.of(build_report(before, args.eps), increment, build_report(after, args.eps))


def cmd_attack(args: argparse.Namespace) -> tuple[int, Any]:
    if args.kind == "reservoir":
        return 0, reservoir_attack(_warned(_load(args)), args.group, args.z_max, args.eps)

    ds = ingest_csv(args.input, _schema_from_args(args))
    g = _warned(tabulate(ds))
    result = swap_attack(ds, args.group)
    after_g = tabulate(result.after)
    lipschitz = lipschitz_violations(result.after, args.scale)
    verdicts = (m(after_g, args.eps) for m in (independence, sufficiency, separation))
    return 0, SwapAudit(
        group=args.group,
        swapped_pair=result.swapped_pair,
        score_gap=result.score_gap,
        matrices_unchanged=g.matrices == after_g.matrices,
        matrices=after_g,
        verdicts_after={v.measure: v for v in verdicts},
        lipschitz=LipschitzCheck(
            scale=args.scale,
            violations=lipschitz.violations,
            skipped_unscored=lipschitz.skipped,
            swapped_pair_flagged=violates(result.score_gap / args.scale),
        ),
    )


def _run_ci_suite(
    rng: random.Random, k: int, count: int, eps: float
) -> CISuite | FlooredCISuite:
    statuses = []
    for i in range(count):
        h = None
        if k == 1:
            instance = random_ci_instance(rng)
        elif k == 2:
            instance = random_ci_instance(rng)
            h = random_map(rng, "X", "U", instance.domain("X"))
        elif k == 3:
            instance, h = random_functional_instance(rng)
        elif k == 4:
            instance = random_chain_instance(rng) if i % 2 == 0 else random_pair_ci_instance(rng)
        else:
            instance = random_product_instance(rng)
        statuses.append(ci_property_status(k, instance, h, eps))
    vacuous = statuses.count(VACUOUS)
    counts = (count, statuses.count(FAIL), count - vacuous, vacuous)
    return FlooredCISuite(*counts, POSITIVITY_FLOOR) if k == 5 else CISuite(*counts)


def _joint_iff_is(g: GroupedConfusion, eps: float, expected: bool) -> bool:
    """Both sides of the joint-independence equivalence equal ``expected``."""
    verdict = check_joint_independence_iff(g, eps)
    return verdict.suff_and_sep == verdict.joint_independent == expected


def cmd_check_props(args: argparse.Namespace) -> tuple[int, Any]:
    rng, count, eps = random.Random(args.seed), args.count, args.eps

    def suite(generate: Callable[..., GroupedConfusion], ok: Callable[..., bool]) -> Suite:
        return Suite(count, sum(not ok(generate(rng)) for _ in range(count)))

    ci_suites = {str(k): _run_ci_suite(rng, k, count, eps) for k in range(1, 6)}
    perfect = suite(random_perfect_grouped, lambda g: perfect_predictor_holds(g, eps))
    joint = JointIndependenceSuites(
        suite(random_proportional_grouped, lambda g: _joint_iff_is(g, eps, True)),
        suite(random_nonproportional_grouped, lambda g: _joint_iff_is(g, eps, False)),
    )
    suites = (*ci_suites.values(), perfect, joint.proportional, joint.nonproportional)
    failures_total = sum(s.failures for s in suites)
    result = PropertySuites(args.seed, count, eps, ci_suites, perfect, joint, failures_total)
    return (0 if failures_total == 0 else 1), result


def cmd_counterexample(args: argparse.Namespace) -> tuple[int, Any]:
    return 0, Counterexample(args.budget, find_break(_warned(_load(args)), args.eps, args.budget))


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _number(parse: Callable[[str], Any], ok: Callable[[Any], bool], expected: str) -> Callable:
    """The converter of an option that takes ``expected``: what ``parse`` reads
    from the raw text, refused alike when it reads nothing or ``ok`` fails."""

    def convert(raw: str) -> Any:
        try:
            value = parse(raw)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
        return value

    return convert


# NaN at --eps would fail every verdict silently; at --scale it would flag no
# pair, and inf every pair. Adding 0.0 reads -0 as 0, so no output prints
# eps = -0.0. _size serves --count, --budget and --z-max.
_tolerance = _number(
    lambda raw: float(raw) + 0.0, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"
)
_size = _number(int, lambda v: v >= 0, "an integer >= 0")
_scale = _number(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--eps",
        type=_tolerance,
        default=EPS_DEFAULT,
        help="tolerance for verdicts (default 1e-9)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=TEXT, help="output format"
    )


def _add_schema_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--positive-labels",
        help="comma-separated encodings read as the positive label",
    )
    parser.add_argument(
        "--negative-labels",
        help="comma-separated encodings read as the negative label",
    )
    parser.add_argument(
        "--groups",
        help="comma-separated declared group universe (groups without records warn)",
    )


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but its own text for stdout (that of ``--version``
    or ``--help``) goes through ``_emit``, so a failed write is an output
    error, exit 2, where argparse drops it and exits 0; its subparsers are of
    this class too."""

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        if not message or file is not sys.stdout:
            super()._print_message(message, file)
        elif _emit(message):
            self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fairaudit",
        description="Audit group-fairness measures on binary classification data.",
    )
    parser.add_argument("--version", action="version", version=f"fairaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="evaluate all three measures on a CSV file")
    audit.add_argument("input", help="CSV file with id,group,y_true,y_pred[,score]")
    _add_common(audit)
    _add_schema_options(audit)
    audit.add_argument(
        "--find-break",
        action="store_true",
        help="also search for an accuracy increment that breaks sufficiency/separation",
    )
    audit.add_argument(
        "--budget", type=_size, default=2, help="total shift budget for --find-break"
    )
    audit.set_defaults(func=cmd_audit)

    demo = sub.add_parser(
        "demo",
        help="show the bundled example where an accuracy increment breaks "
        "sufficiency and separation",
    )
    _add_common(demo)
    demo.set_defaults(func=cmd_demo)

    attack = sub.add_parser("attack", help="run a gerrymandering attack and re-audit")
    attack.add_argument("kind", choices=("reservoir", "swap"))
    attack.add_argument("input", help="CSV file with id,group,y_true,y_pred[,score]")
    attack.add_argument("--group", required=True, help="attacked group label")
    attack.add_argument(
        "--z-max", type=_size, default=100, help="largest reservoir size to consider"
    )
    attack.add_argument(
        "--scale", type=_scale, default=1.0, help="score scale for the Lipschitz metric"
    )
    _add_common(attack)
    _add_schema_options(attack)
    attack.set_defaults(func=cmd_attack)

    props = sub.add_parser(
        "check-props", help="run the randomized property verification suites"
    )
    props.add_argument("--seed", type=int, default=42)
    props.add_argument(
        "--count", type=_size, default=100, help="instances per suite (default 100)"
    )
    _add_common(props)
    props.set_defaults(func=cmd_check_props)

    cx = sub.add_parser(
        "counterexample",
        help="search for an accuracy increment breaking sufficiency/separation",
    )
    cx.add_argument("input", help="CSV file with id,group,y_true,y_pred[,score]")
    cx.add_argument("--budget", type=_size, default=2, help="total shift budget")
    _add_common(cx)
    _add_schema_options(cx)
    cx.set_defaults(func=cmd_counterexample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, result = args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == JSON:
        output = render({**header(args.eps), **members(result)})
    else:
        output = render_text(result)
    return _emit(output) or code


def _emit(text: str) -> int:
    """Write ``text`` to stdout in ``OUTPUT_SLICE`` slices and flush it: 0, or
    2 once a failed write is named on stderr. No other code writes stdout."""
    try:
        for start in range(0, len(text), OUTPUT_SLICE):
            sys.stdout.write(text[start : start + OUTPUT_SLICE])
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def run(argv: Sequence[str] | None = None) -> NoReturn:
    """The process entry: ``main``'s exit code, or argparse's own for
    ``--version``, ``--help`` and usage errors, and then ``os._exit``, so the
    interpreter is not torn down after the output is out.

    The command runs with the cyclic collector off. Its rows, records and
    counts form no reference cycles, so reference counting frees them, and
    the collections their allocations would trigger only walk them. Every
    command leaves the same objects in cycles, argparse's parsers (310 on
    CPython 3.11), whatever its input size (``TestCyclicGarbage`` in
    ``tests/test_cli.py``), and ``os._exit`` ends the process without
    collecting them. ``main`` called in-process leaves the collector as its
    caller set it.

    After an output error, what stdout still holds is dropped, not flushed
    again. An uncaught exception ends the process as Python would.
    """
    gc.disable()
    try:
        code = main(argv)
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()
