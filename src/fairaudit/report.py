"""Audit report assembly and deterministic serialization.

Payloads contain only JSON-serializable values, rendered with sorted keys, so
re-running a command on identical input yields byte-identical output. Rational
quantities carry both the exact fraction (as a string) and a float value; text
output shows fractions with 6-decimal floats alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from . import __version__
from .confusion import ConfusionMatrix, GroupStats, GroupedConfusion, is_positive
from .conservativeness import (
    BreakWitness,
    ConservativenessReport,
    Increment,
    JointIndependenceVerdict,
    check_conservativeness,
    check_joint_independence_iff,
    find_break,
    is_perfect,
)
from .errors import PreconditionError
from .measures import MeasureVerdict, independence, separation, sufficiency

TEXT = "text"
JSON = "json"
FORMATS = (TEXT, JSON)


# ---------------------------------------------------------------------------
# Number and verdict formatting
# ---------------------------------------------------------------------------


def num_payload(x: Fraction | float | None) -> Any:
    if x is None:
        return None
    if isinstance(x, Fraction):
        return {"exact": str(x), "value": float(x)}
    return {"exact": None, "value": float(x)}


def num_text(x: Fraction | float | None) -> str:
    if x is None:
        return "undefined"
    if isinstance(x, Fraction):
        return f"{x} ({float(x):.6f})"
    return f"{float(x):.6f}"


def verdict_status(v: MeasureVerdict) -> str:
    if v.holds is None:
        return "not-comparable"
    return "holds" if v.holds else "fails"


def verdict_payload(v: MeasureVerdict) -> dict[str, Any]:
    return {
        "measure": v.measure,
        "status": verdict_status(v),
        "holds": v.holds,
        "disparity": num_payload(v.disparity),
        "component_gaps": {
            label: num_payload(gap) for label, gap in v.component_gaps.items()
        },
        "witnesses": list(v.witnesses) if v.witnesses else None,
        "eps": v.eps,
    }


def verdict_text(v: MeasureVerdict) -> str:
    gaps = ", ".join(
        f"{label} = {num_text(gap)}" for label, gap in v.component_gaps.items()
    )
    line = f"{v.measure}: {verdict_status(v).upper()}  ({gaps})"
    if v.witnesses:
        line += f"  [max gap: {v.witnesses[0]} vs {v.witnesses[1]}]"
    return line


def matrix_payload(m: ConfusionMatrix) -> dict[str, int]:
    return {"a": m.a, "b": m.b, "c": m.c, "d": m.d}


def matrix_text(m: ConfusionMatrix) -> str:
    return f"(a={m.a}, b={m.b}, c={m.c}, d={m.d})"


def matrices_payload(g: GroupedConfusion) -> dict[str, dict[str, int]]:
    return {group: matrix_payload(g[group]) for group in g.groups}


#: The per-group rates reported, in display order.
STATS = ("accuracy", "ppv", "npv", "fpr", "fnr")


def stats_payload(s: GroupStats) -> dict[str, Any]:
    return {name: num_payload(getattr(s, name)) for name in STATS}


def stats_text(s: GroupStats) -> str:
    return "  ".join(f"{name} {num_text(getattr(s, name))}" for name in STATS)


def increment_payload(inc: Increment) -> list[dict[str, Any]]:
    return [
        {"group": s.group, "direction": s.direction, "count": s.count}
        for s in inc.shifts
    ]


def increment_text(inc: Increment) -> str:
    return ", ".join(
        f"{s.group}: {s.count} {'FN->TP' if s.direction == 'fn_to_tp' else 'FP->TN'}"
        for s in inc.shifts
    )


def header(eps: float) -> dict[str, Any]:
    """The ``tool`` and ``eps`` keys every JSON payload starts from."""
    return {"tool": {"name": "fairaudit", "version": __version__}, "eps": eps}


def render(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The audit report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessReport:
    """Everything an audit run produces, ready to serialize."""

    eps: float
    grouped: GroupedConfusion
    verdicts: tuple[MeasureVerdict, MeasureVerdict, MeasureVerdict]
    perfect: bool
    perfect_report: ConservativenessReport | None
    joint_independence: JointIndependenceVerdict | None
    break_witness: BreakWitness | None
    break_budget: int | None
    break_note: str | None

    def all_hold(self) -> bool:
        return all(v.holds is True for v in self.verdicts)

    def payload(self) -> dict[str, Any]:
        g = self.grouped
        out: dict[str, Any] = {
            **header(self.eps),
            "input": {
                "total_records": g.total,
                "group_sizes": {group: g[group].n for group in g.groups},
                "empty_groups": list(g.empty_groups),
            },
            "matrices": matrices_payload(g),
            "group_stats": {
                group: stats_payload(g[group].stats()) for group in g.groups
            },
            "measures": {v.measure: verdict_payload(v) for v in self.verdicts},
            "all_hold": self.all_hold(),
            "conservativeness": {
                "perfect_predictor": self.perfect,
                "perfect_check": None
                if self.perfect_report is None
                else {
                    "sufficiency": verdict_payload(self.perfect_report.sufficiency),
                    "separation": verdict_payload(self.perfect_report.separation),
                    "independence": verdict_payload(self.perfect_report.independence),
                    "holds": self.perfect_report.holds,
                },
                "joint_independence": None
                if self.joint_independence is None
                else {
                    "suff_and_sep": self.joint_independence.suff_and_sep,
                    "joint_independent": self.joint_independence.joint_independent,
                    "equivalent": self.joint_independence.equivalent,
                    "ci_deviation": num_payload(self.joint_independence.ci_deviation),
                },
            },
        }
        if self.break_budget is not None:
            out["break_search"] = break_payload(
                self.break_witness, self.break_budget, self.break_note
            )
        return out

    def text(self) -> str:
        g = self.grouped
        lines = [
            f"fairness audit (fairaudit {__version__}, eps = {self.eps})",
            "",
            f"input: {g.total} records in {len(g.groups)} group(s)",
        ]
        for group in g.groups:
            lines.append(f"  {group}: {matrix_text(g[group])}  N = {g[group].n}")
        if g.empty_groups:
            lines.append(
                f"  warning: declared group(s) without records, excluded: "
                f"{', '.join(g.empty_groups)}"
            )
        lines.append("")
        lines.append("group statistics")
        for group in g.groups:
            lines.append(f"  {group}: {stats_text(g[group].stats())}")
        lines.append("")
        lines.append("measures")
        for v in self.verdicts:
            lines.append(f"  {verdict_text(v)}")
        lines.append("")
        lines.append("conservativeness")
        lines.append(f"  perfect predictor: {'yes' if self.perfect else 'no'}")
        if self.perfect_report is not None:
            ok = "confirmed" if self.perfect_report.holds else "VIOLATED"
            lines.append(
                f"  perfect-predictor guarantee (sufficiency & separation): {ok}"
            )
            lines.append(
                f"    independence alongside: "
                f"{verdict_status(self.perfect_report.independence)}"
            )
        if self.joint_independence is not None:
            ji = self.joint_independence
            lines.append(
                "  positive table: sufficiency & separation "
                f"{'hold' if ji.suff_and_sep else 'do not hold'}; "
                f"A independent of (Y,R): {'yes' if ji.joint_independent else 'no'} "
                f"(deviation {num_text(ji.ci_deviation)})"
            )
            lines.append(
                f"    equivalence: {'consistent' if ji.equivalent else 'INCONSISTENT'}"
            )
        if self.break_budget is not None:
            lines.append("")
            lines.extend(
                break_text(self.break_witness, self.break_budget, self.break_note)
            )
        lines.append("")
        return "\n".join(lines)


def break_payload(
    witness: BreakWitness | None, budget: int, note: str | None
) -> dict[str, Any]:
    out: dict[str, Any] = {"budget": budget, "note": note}
    if witness is None:
        out["witness"] = None
        return out
    out["witness"] = {
        "increment": increment_payload(witness.increment),
        "before": matrices_payload(witness.before),
        "after": matrices_payload(witness.after),
        "accuracy_delta": {
            group: num_payload(delta)
            for group, delta in witness.accuracy_delta.items()
        },
        "broken": list(witness.broken),
        "sufficiency_after": verdict_payload(witness.sufficiency_after),
        "separation_after": verdict_payload(witness.separation_after),
    }
    return out


def break_text(witness: BreakWitness | None, budget: int, note: str | None) -> list[str]:
    lines = [f"accuracy-increment break search (budget = {budget})"]
    if note is not None:
        lines.append(f"  skipped: {note}")
        return lines
    if witness is None:
        lines.append("  no measure-breaking increment within budget (NONE)")
        return lines
    lines.append(f"  witness increment: {increment_text(witness.increment)}")
    for group in witness.after.groups:
        lines.append(
            f"  {group}: {matrix_text(witness.before[group])} -> "
            f"{matrix_text(witness.after[group])}, accuracy +"
            f"{num_text(witness.accuracy_delta[group])}"
        )
    lines.append(f"  broken: {', '.join(witness.broken)}")
    lines.append(f"  after: {verdict_text(witness.sufficiency_after)}")
    lines.append(f"  after: {verdict_text(witness.separation_after)}")
    return lines


def build_report(
    g: GroupedConfusion,
    eps: float,
    break_budget: int | None = None,
) -> FairnessReport:
    """Run the full audit pipeline over a grouped confusion table."""
    verdicts = (independence(g, eps), sufficiency(g, eps), separation(g, eps))
    perfect = is_perfect(g)
    perfect_report = check_conservativeness(g, eps) if perfect else None
    joint = check_joint_independence_iff(g, eps) if is_positive(g) else None
    witness = None
    note = None
    if break_budget is not None:
        try:
            witness = find_break(g, eps, break_budget)
        except PreconditionError as exc:
            note = str(exc)
    return FairnessReport(
        eps=eps,
        grouped=g,
        verdicts=verdicts,
        perfect=perfect,
        perfect_report=perfect_report,
        joint_independence=joint,
        break_witness=witness,
        break_budget=break_budget,
        break_note=note,
    )
