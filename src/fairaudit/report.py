"""Audit report assembly and deterministic serialization.

Payloads contain only JSON-serializable values, rendered with sorted keys, so
re-running a command on identical input yields byte-identical output. The one
exception are the Lipschitz violations of ``attack swap``: plain rows that
``render`` writes as the objects they stand for. :func:`jsonable` turns
results into payload values: an object carries the fields of the result it
reports, an exact rate is ``{"exact": "<fraction>", "value": <float>}``, a
verdict adds ``status``, a ``GroupedConfusion`` is its ``matrices`` and an
``Increment`` its ``shifts``. Text output shows fractions with 6-decimal
floats alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Sequence

from . import __version__
from .adversary import ReservoirAttackResult, ReservoirPlan
from .confusion import ConfusionMatrix, GroupedConfusion, is_positive
from .conservativeness import (
    BreakWitness,
    ConservativenessReport,
    GroupShift,
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


def num_text(x: Fraction | None) -> str:
    if x is None:
        return "undefined"
    return f"{x} ({float(x):.6f})"


def verdict_status(v: MeasureVerdict) -> str:
    if v.holds is None:
        return "not-comparable"
    return "holds" if v.holds else "fails"


def verdict_text(v: MeasureVerdict) -> str:
    gaps = ", ".join(
        f"{label} = {num_text(gap)}" for label, gap in v.component_gaps.items()
    )
    line = f"{v.measure}: {verdict_status(v).upper()}  ({gaps})"
    if v.witnesses:
        line += f"  [max gap: {v.witnesses[0]} vs {v.witnesses[1]}]"
    return line


def matrix_text(m: ConfusionMatrix) -> str:
    return f"(a={m.a}, b={m.b}, c={m.c}, d={m.d})"


#: The per-group rates reported, in display order.
STATS = ("accuracy", "ppv", "npv", "fpr", "fnr")


def stats_text(m: ConfusionMatrix) -> str:
    return "  ".join(f"{name} {num_text(getattr(m, name))}" for name in STATS)


def increment_text(inc: Increment) -> str:
    return ", ".join(
        f"{s.group}: {s.count} {'FN->TP' if s.direction == 'fn_to_tp' else 'FP->TN'}"
        for s in inc.shifts
    )


#: Result types whose JSON value is an object of their fields, by name.
_RECORDS = (
    MeasureVerdict,
    ConfusionMatrix,
    GroupShift,
    ReservoirPlan,
    ReservoirAttackResult,
    ConservativenessReport,
    JointIndependenceVerdict,
    BreakWitness,
)


def jsonable(x: Any) -> Any:
    """The JSON value of a result, as the module docstring lists; dicts and
    tuples are converted element by element, anything else is returned as is."""
    if isinstance(x, Fraction):
        return {"exact": str(x), "value": float(x)}
    if isinstance(x, GroupedConfusion):
        return jsonable(x.matrices)
    if isinstance(x, Increment):
        return jsonable(x.shifts)
    if isinstance(x, _RECORDS):
        out = {f.name: jsonable(getattr(x, f.name)) for f in fields(x)}
        if isinstance(x, MeasureVerdict):
            out["status"] = verdict_status(x)
        return out
    if isinstance(x, dict):
        return {key: jsonable(value) for key, value in x.items()}
    if isinstance(x, tuple):
        return [jsonable(item) for item in x]
    return x


def header(eps: float) -> dict[str, Any]:
    """The ``tool`` and ``eps`` keys every JSON payload starts from."""
    return {"tool": {"name": "fairaudit", "version": __version__}, "eps": eps}


def violations_json(rows: Sequence[tuple[str, str, float]]) -> str:
    """The ``lipschitz.violations`` array of ``attack swap`` for
    ``(id_a, id_b, d)`` rows, exactly as ``json.dumps(..., sort_keys=True,
    indent=2)`` writes the list of ``{"ids": [id_a, id_b],
    "individual_distance": d, "margin": 1.0 - d, "prediction_distance": 1.0}``
    at nesting depth 2, with one f-string per row and no dict."""
    if not rows:
        return "[]"
    enc = encode_basestring_ascii
    items = ",".join(
        f'\n      {{\n        "ids": [\n          {enc(a)},\n          {enc(b)}\n        ],'
        f'\n        "individual_distance": {d!r},\n        "margin": {1.0 - d!r},'
        f'\n        "prediction_distance": 1.0\n      }}'
        for a, b, d in rows
    )
    return f"[{items}\n    ]"


def render(payload: Mapping[str, Any]) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline. The
    rows of a top-level ``lipschitz`` object's ``violations`` are written by
    :func:`violations_json`; they sort last in that object."""
    lipschitz = payload.get("lipschitz")
    if lipschitz is None:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    text = json.dumps(
        {**payload, "lipschitz": {**lipschitz, "violations": []}}, sort_keys=True, indent=2
    )
    # Strings hold no raw newline and nested lines are indented further, so
    # the top-level key is the only line starting '  "lipschitz": ' and its
    # object ends at the next line that is "  }", right after the "[]".
    end = text.index("\n  }", text.index('\n  "lipschitz": '))
    return text[: end - 2] + violations_json(lipschitz["violations"]) + text[end:] + "\n"


# ---------------------------------------------------------------------------
# The audit report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairnessReport:
    """Everything an audit run produces, ready to serialize."""

    eps: float
    grouped: GroupedConfusion
    verdicts: tuple[MeasureVerdict, MeasureVerdict, MeasureVerdict]
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
            "matrices": jsonable(g),
            "group_stats": {
                group: jsonable({name: getattr(g[group], name) for name in STATS})
                for group in g.groups
            },
            "measures": jsonable({v.measure: v for v in self.verdicts}),
            "all_hold": self.all_hold(),
            "conservativeness": {
                "perfect_predictor": self.perfect_report is not None,
                "perfect_check": jsonable(self.perfect_report),
                "joint_independence": jsonable(self.joint_independence),
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
            lines.append(f"  {group}: {stats_text(g[group])}")
        lines.append("")
        lines.append("measures")
        for v in self.verdicts:
            lines.append(f"  {verdict_text(v)}")
        lines.append("")
        lines.append("conservativeness")
        lines.append(f"  perfect predictor: {'no' if self.perfect_report is None else 'yes'}")
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
    return {"budget": budget, "note": note, "witness": jsonable(witness)}


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
    perfect_report = check_conservativeness(g, eps) if is_perfect(g) else None
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
        perfect_report=perfect_report,
        joint_independence=joint,
        break_witness=witness,
        break_budget=break_budget,
        break_note=note,
    )
