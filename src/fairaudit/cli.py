"""Command-line interface: ingestion, audits, demonstrations, and attacks.

Exit codes: 0 all requested measures hold (or the command completed),
1 a fairness measure failed (or a verification suite had failures),
2 input or precondition error, 3 infeasible attack.

CSV schema: header ``id,group,y_true,y_pred[,score]``; labels accept
configurable truthy/falsy encodings; scores are optional floats in [0, 1].
"""

from __future__ import annotations

import argparse
import csv
import math
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import __version__
from .adversary import lipschitz_violations, reservoir_attack, swap_attack
from .confusion import ConfusionMatrix, Dataset, GroupedConfusion, Record, tabulate
from .conservativeness import (
    FN_TO_TP,
    GroupShift,
    Increment,
    apply_increment,
    check_conservativeness,
    check_joint_independence_iff,
    find_break,
)
from .distributions import EPS_DEFAULT, check_ci_property
from .errors import AuditError, Infeasible, InputError
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
from .measures import independence, separation, sufficiency
from .report import (
    FORMATS,
    JSON,
    TEXT,
    break_payload,
    break_text,
    build_report,
    header,
    increment_payload,
    increment_text,
    matrices_payload,
    matrix_text,
    num_payload,
    num_text,
    render,
    verdict_payload,
    verdict_text,
)

REQUIRED_COLUMNS = ("id", "group", "y_true", "y_pred")
DEFAULT_POSITIVE = ("1", "true", "yes", "+", "positive")
DEFAULT_NEGATIVE = ("0", "false", "no", "-", "negative")

#: The worked two-group example used by ``demo``: sufficiency, separation and
#: independence all hold exactly, yet one FN->TP shift per group breaks the
#: first two while increasing accuracy in both groups.
DEMO_BEFORE = {
    "p": ConfusionMatrix(10, 2, 3, 11),
    "q": ConfusionMatrix(20, 4, 6, 22),
}


# ---------------------------------------------------------------------------
# CSV ingestion and export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Label encodings and (optionally) the declared group universe."""

    positive_labels: tuple[str, ...] = DEFAULT_POSITIVE
    negative_labels: tuple[str, ...] = DEFAULT_NEGATIVE
    groups: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        shared = sorted(set(self.positive_labels) & set(self.negative_labels))
        if shared:
            raise InputError(
                f"label encoding(s) {', '.join(map(repr, shared))} "
                "listed as both positive and negative"
            )

    def parse_label(self, raw: str, column: str, where: str) -> bool:
        value = raw.strip().lower()
        if value in self.positive_labels:
            return True
        if value in self.negative_labels:
            return False
        raise InputError(
            f"{where}: cannot parse {column}={raw!r}; "
            f"positive encodings {self.positive_labels}, "
            f"negative encodings {self.negative_labels}"
        )


def ingest_csv(path: str, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a dataset from CSV, rejecting schema violations with locations."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise InputError(f"{path}: file is empty; header row required")
        missing = [col for col in REQUIRED_COLUMNS if col not in reader.fieldnames]
        if missing:
            raise InputError(f"{path}: missing column(s): {', '.join(missing)}")
        has_score = "score" in reader.fieldnames
        records: list[Record] = []
        seen: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            where = f"{path}:{line_no}"
            rid = (row.get("id") or "").strip()
            if not rid:
                raise InputError(f"{where}: empty id")
            if rid in seen:
                raise InputError(f"{where}: duplicate id {rid!r}")
            seen.add(rid)
            group = (row.get("group") or "").strip()
            if not group:
                raise InputError(f"{where}: empty group")
            if schema.groups is not None and group not in schema.groups:
                raise InputError(
                    f"{where}: group {group!r} not among declared groups {schema.groups}"
                )
            y = schema.parse_label(row.get("y_true") or "", "y_true", where)
            r = schema.parse_label(row.get("y_pred") or "", "y_pred", where)
            score: float | None = None
            raw_score = (row.get("score") or "").strip() if has_score else ""
            if raw_score:
                try:
                    score = float(raw_score)
                except ValueError:
                    raise InputError(f"{where}: cannot parse score={raw_score!r}") from None
            try:
                records.append(Record(id=rid, group=group, y=y, r=r, score=score))
            except InputError as exc:
                raise InputError(f"{where}: {exc}") from None
    if not records:
        raise InputError(f"{path}: no data rows")
    return Dataset.from_records(records, schema.groups)


def export_csv(ds: Dataset, path: str) -> None:
    """Write a dataset in the canonical encoding (labels as +/-)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "group", "y_true", "y_pred", "score"])
        for rec in ds.records:
            writer.writerow(
                [
                    rec.id,
                    rec.group,
                    "+" if rec.y else "-",
                    "+" if rec.r else "-",
                    "" if rec.score is None else repr(rec.score),
                ]
            )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

#: What a command returns: exit code, JSON payload (without the header) and text.
Output = tuple[int, dict[str, Any], str]


def _schema_from_args(args: argparse.Namespace) -> CsvSchema:
    kwargs: dict[str, Any] = {}
    for option in ("positive_labels", "negative_labels"):
        if getattr(args, option):
            labels = getattr(args, option).split(",")
            kwargs[option] = tuple(label.strip().lower() for label in labels)
    if args.groups:
        kwargs["groups"] = tuple(label.strip() for label in args.groups.split(","))
    return CsvSchema(**kwargs)


def _load(args: argparse.Namespace) -> tuple[Dataset, GroupedConfusion]:
    ds = ingest_csv(args.input, _schema_from_args(args))
    return ds, tabulate(ds)


def cmd_audit(args: argparse.Namespace) -> Output:
    _, g = _load(args)
    report = build_report(g, args.eps, args.budget if args.find_break else None)
    return (0 if report.all_hold() else 1), report.payload(), report.text()


def cmd_demo(args: argparse.Namespace) -> Output:
    before = GroupedConfusion(DEMO_BEFORE)
    increment = Increment(
        tuple(GroupShift(group, FN_TO_TP, 1) for group in before.groups)
    )
    after = apply_increment(before, increment)
    before_report = build_report(before, args.eps)
    after_report = build_report(after, args.eps)
    _, suff_after, sep_after = after_report.verdicts
    fpr_gap = sep_after.component_gaps["fpr_gap"]

    highlights: dict[str, Any] = {"fpr_gap": num_payload(fpr_gap)}
    lines = [
        "demonstration: an accuracy increment that breaks sufficiency and separation",
        "",
        "----- before -----",
        before_report.text(),
        f"increment (accuracy rises in every group): {increment_text(increment)}",
        "",
        "----- after -----",
        after_report.text(),
        "highlights",
    ]
    p, q = after.groups
    for rate, verdict in (("ppv", suff_after), ("fnr", sep_after)):
        gap = verdict.component_gaps[f"{rate}_gap"]
        highlights[rate] = {
            group: num_payload(getattr(after[group], rate)) for group in after.groups
        }
        highlights[f"{rate}_gap"] = num_payload(gap)
        lines.append(
            f"  {rate}: {p} {num_text(getattr(after[p], rate))} vs "
            f"{q} {num_text(getattr(after[q], rate))}, "
            f"gap {num_text(gap)} -> {verdict.measure} {'holds' if verdict.holds else 'broken'}"
        )
    lines.append(f"  fpr: gap {num_text(fpr_gap)} (unchanged)")
    lines.append("")
    payload = {
        "demo": "accuracy increment breaking sufficiency and separation",
        "before": before_report.payload(),
        "increment": increment_payload(increment),
        "after": after_report.payload(),
        "highlights": highlights,
    }
    return 0, payload, "\n".join(lines)


def cmd_attack(args: argparse.Namespace) -> Output:
    ds, g = _load(args)
    if args.kind == "reservoir":
        result = reservoir_attack(g, args.group, args.z_max, args.eps)
        payload: dict[str, Any] = {
            "attack": "reservoir",
            "target_group": args.group,
            "plan": {
                "z": result.plan.z,
                "z_plus": result.plan.z_plus,
                "z_minus": result.plan.z_minus,
            },
            "before": matrices_payload(result.before),
            "after": matrices_payload(result.after),
        }
        lines = [
            f"reservoir attack on group {args.group!r}",
            f"  plan: hire z_plus={result.plan.z_plus}, reject z_minus={result.plan.z_minus} "
            f"of a reservoir of z={result.plan.z} qualified candidates",
        ]
        for grp in g.groups:
            lines.append(
                f"  {grp}: {matrix_text(result.before[grp])} -> {matrix_text(result.after[grp])}"
            )
        for measure in ("separation", "independence"):
            for stage in ("before", "after"):
                verdict = getattr(result, f"{measure}_{stage}")
                payload[f"{measure}_{stage}"] = verdict_payload(verdict)
                lines.append(f"  {stage:6} {verdict_text(verdict)}")
        lines.append("")
        return 0, payload, "\n".join(lines)

    result = swap_attack(ds, args.group)
    after_g = tabulate(result.after)
    matrices_unchanged = tabulate(result.before).matrices == after_g.matrices
    lipschitz = lipschitz_violations(result.after, args.scale)
    swapped = set(result.swapped_pair)
    pair_flagged = any(
        {violation.id_a, violation.id_b} == swapped
        for violation in lipschitz.violations
    )
    payload = {
        "attack": "swap",
        "group": args.group,
        "swapped_pair": list(result.swapped_pair),
        "score_gap": result.score_gap,
        "matrices_unchanged": matrices_unchanged,
        "matrices": matrices_payload(after_g),
        "verdicts_after": {
            v.measure: verdict_payload(v)
            for v in (m(after_g, args.eps) for m in (independence, sufficiency, separation))
        },
        "lipschitz": {
            "scale": args.scale,
            "violations": [
                {
                    "ids": [v.id_a, v.id_b],
                    "individual_distance": v.individual_distance,
                    "prediction_distance": v.prediction_distance,
                    "margin": v.margin,
                }
                for v in lipschitz.violations
            ],
            "skipped_unscored": list(lipschitz.skipped),
            "swapped_pair_flagged": pair_flagged,
        },
    }
    lines = [
        f"swap attack in group {args.group!r}",
        f"  swapped predictions of {result.swapped_pair[0]} (false negative) and "
        f"{result.swapped_pair[1]} (true positive), score gap {result.score_gap:.6f}",
        f"  confusion matrices unchanged: {'yes' if matrices_unchanged else 'NO'}",
        f"  lipschitz violations at scale {args.scale}: {len(lipschitz.violations)}"
        f" (swapped pair flagged: {'yes' if pair_flagged else 'no'})",
    ]
    for violation in lipschitz.violations[:10]:
        lines.append(
            f"    {violation.id_a} vs {violation.id_b}: D={violation.prediction_distance:.0f}, "
            f"d={violation.individual_distance:.6f}, margin={violation.margin:.6f}"
        )
    if len(lipschitz.violations) > 10:
        lines.append(f"    ... and {len(lipschitz.violations) - 10} more")
    lines.append("")
    return 0, payload, "\n".join(lines)


def _run_ci_suite(rng: random.Random, k: int, count: int, eps: float) -> dict[str, Any]:
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
            instance = random_product_instance(rng, POSITIVITY_FLOOR)
        statuses.append(check_ci_property(k, instance, h, eps).status)
    vacuous = statuses.count("vacuous")
    out: dict[str, Any] = {
        "instances": count,
        "non_vacuous": count - vacuous,
        "vacuous": vacuous,
        "failures": statuses.count("fail"),
    }
    if k == 5:
        out["positivity_floor"] = POSITIVITY_FLOOR
    return out


def _run_grouped_suite(
    rng: random.Random,
    count: int,
    generate: Callable[[random.Random], GroupedConfusion],
    ok: Callable[[GroupedConfusion], bool],
) -> dict[str, int]:
    failures = sum(not ok(generate(rng)) for _ in range(count))
    return {"instances": count, "failures": failures}


def _joint_iff_is(g: GroupedConfusion, eps: float, expected: bool) -> bool:
    """Both sides of the joint-independence equivalence equal ``expected``."""
    verdict = check_joint_independence_iff(g, eps)
    return verdict.suff_and_sep == verdict.joint_independent == expected


def cmd_check_props(args: argparse.Namespace) -> Output:
    rng = random.Random(args.seed)
    count = args.count
    eps = args.eps

    ci_suites = {str(k): _run_ci_suite(rng, k, count, eps) for k in range(1, 6)}
    perfect = _run_grouped_suite(
        rng, count, random_perfect_grouped, lambda g: check_conservativeness(g, eps).holds
    )
    proportional = _run_grouped_suite(
        rng, count, random_proportional_grouped, lambda g: _joint_iff_is(g, eps, True)
    )
    nonproportional = _run_grouped_suite(
        rng, count, random_nonproportional_grouped, lambda g: _joint_iff_is(g, eps, False)
    )
    failures_total = sum(
        suite["failures"]
        for suite in (*ci_suites.values(), perfect, proportional, nonproportional)
    )
    payload = {
        "seed": args.seed,
        "count": count,
        "ci_properties": ci_suites,
        "perfect_predictor": perfect,
        "joint_independence": {
            "proportional": proportional,
            "nonproportional": nonproportional,
        },
        "failures_total": failures_total,
    }
    lines = [
        f"property verification suites (seed = {args.seed}, {count} instances each, eps = {eps})",
        "",
    ]
    for k, suite in ci_suites.items():
        extra = f", positivity floor {suite['positivity_floor']}" if k == "5" else ""
        lines.append(
            f"  conditional-independence property {k}: "
            f"{suite['non_vacuous']} non-vacuous, {suite['vacuous']} vacuous, "
            f"{suite['failures']} failures{extra}"
        )
    for label, suite in (
        ("perfect predictor => sufficiency & separation", perfect),
        ("positive proportional tables (suff & sep <-> A indep (Y,R), both true)", proportional),
        ("positive non-proportional tables (both sides false)", nonproportional),
    ):
        lines.append(f"  {label}: {suite['failures']} failures")
    lines.append("")
    lines.append(f"total failures: {failures_total}")
    lines.append("")
    return (0 if failures_total == 0 else 1), payload, "\n".join(lines)


def cmd_counterexample(args: argparse.Namespace) -> Output:
    _, g = _load(args)
    witness = find_break(g, args.eps, args.budget)
    payload = {"command": "counterexample", **break_payload(witness, args.budget, None)}
    lines = break_text(witness, args.budget, None)
    lines.append("")
    return 0, payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _tolerance(raw: str) -> float:
    """``--eps``: a finite number >= 0 (NaN would fail every verdict silently)."""
    value = float(raw)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {raw!r}")
    return value


def _size(raw: str) -> int:
    """``--count``, ``--budget`` and ``--z-max``: an integer >= 0."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {raw!r}")
    return value


def _scale(raw: str) -> float:
    """``--scale``: a finite number > 0 (NaN would flag no pair, inf every pair)."""
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {raw!r}")
    return value


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        code, payload, text = args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render({**header(args.eps), **payload}) if args.format == JSON else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
