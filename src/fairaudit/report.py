"""Command results and every output made from them: each CLI command returns
one result, and this module decides how it reads. :func:`jsonable` turns it
into JSON values: an object carries the fields of the result it reports, an
exact rate is ``{"exact": "<fraction>", "value": <float>}``, a verdict adds
``status``, a ``GroupedConfusion`` is its ``matrices``, an ``Increment`` its
``shifts`` and a ``FairnessReport`` its ``payload()``. :func:`render` writes
them with sorted keys, so identical input yields identical bytes; the
Lipschitz rows of ``attack swap`` stay plain rows that it writes as objects.
:func:`render_text` picks the renderer of the result's type; text shows
fractions with 6-decimal floats alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
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


# ---------------------------------------------------------------------------
# Command results. A field fixed with ``init=False`` names the command in its
# JSON: ``attack``, ``command`` or ``demo``.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakSearch:
    """A break search's witness (``None`` if none was found), or why it was skipped."""

    budget: int
    witness: BreakWitness | None
    note: str | None = None


@dataclass(frozen=True)
class Counterexample(BreakSearch):
    command: str = field(default="counterexample", init=False)


@dataclass(frozen=True)
class Demo:
    """``highlights``: the rates and gaps that show sufficiency and separation breaking."""

    before: FairnessReport
    increment: Increment
    after: FairnessReport
    highlights: dict[str, Any] = field(init=False)
    demo: str = field(default="accuracy increment breaking sufficiency and separation", init=False)

    def __post_init__(self) -> None:
        g, (_, suff, sep) = self.after.grouped, self.after.verdicts
        highlights: dict[str, Any] = {"fpr_gap": sep.component_gaps["fpr_gap"]}
        for rate, verdict in (("ppv", suff), ("fnr", sep)):
            highlights[rate] = {group: getattr(g[group], rate) for group in g.groups}
            highlights[f"{rate}_gap"] = verdict.component_gaps[f"{rate}_gap"]
        object.__setattr__(self, "highlights", highlights)


@dataclass(frozen=True)
class LipschitzCheck:
    """The ``violations`` rows are a list, which :func:`jsonable` leaves for :func:`render`."""

    scale: float
    violations: list[tuple[str, str, float]]
    skipped_unscored: tuple[str, ...]
    swapped_pair_flagged: bool


@dataclass(frozen=True)
class SwapAudit:
    group: str
    swapped_pair: tuple[str, str]
    score_gap: float
    matrices_unchanged: bool
    matrices: GroupedConfusion
    verdicts_after: dict[str, MeasureVerdict]
    lipschitz: LipschitzCheck
    attack: str = field(default="swap", init=False)


@dataclass(frozen=True)
class Suite:
    instances: int
    failures: int


@dataclass(frozen=True)
class CISuite(Suite):
    non_vacuous: int
    vacuous: int


@dataclass(frozen=True)
class FlooredCISuite(CISuite):
    positivity_floor: float


@dataclass(frozen=True)
class JointIndependenceSuites:
    proportional: Suite
    nonproportional: Suite


@dataclass(frozen=True)
class PropertySuites:
    seed: int
    count: int
    eps: float
    ci_properties: dict[str, CISuite]
    perfect_predictor: Suite
    joint_independence: JointIndependenceSuites
    failures_total: int


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
    BreakSearch,
    Demo,
    LipschitzCheck,
    SwapAudit,
    Suite,
    JointIndependenceSuites,
    PropertySuites,
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
    if isinstance(x, FairnessReport):
        return x.payload()
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
    break_search: BreakSearch | None

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
        if self.break_search is not None:
            out["break_search"] = break_payload(self.break_search)
        return out

    def text(self) -> str:
        g = self.grouped
        lines = [
            f"fairness audit (fairaudit {__version__}, eps = {self.eps})",
            "",
            f"input: {g.total} records in {len(g.groups)} group(s)",
        ]
        lines += [f"  {group}: {matrix_text(g[group])}  N = {g[group].n}" for group in g.groups]
        if g.empty_groups:
            lines.append(
                f"  warning: declared group(s) without records, excluded: "
                f"{', '.join(g.empty_groups)}"
            )
        lines += ["", "group statistics"]
        lines += [f"  {group}: {stats_text(g[group])}" for group in g.groups]
        lines += ["", "measures", *(f"  {verdict_text(v)}" for v in self.verdicts)]
        lines += ["", "conservativeness"]
        lines.append(f"  perfect predictor: {'no' if self.perfect_report is None else 'yes'}")
        if self.perfect_report is not None:
            ok = "confirmed" if self.perfect_report.holds else "VIOLATED"
            independence_status = verdict_status(self.perfect_report.independence)
            lines.append(f"  perfect-predictor guarantee (sufficiency & separation): {ok}")
            lines.append(f"    independence alongside: {independence_status}")
        if self.joint_independence is not None:
            ji = self.joint_independence
            lines.append(
                "  positive table: sufficiency & separation "
                f"{'hold' if ji.suff_and_sep else 'do not hold'}; "
                f"A independent of (Y,R): {'yes' if ji.joint_independent else 'no'} "
                f"(deviation {num_text(ji.ci_deviation)})"
            )
            lines.append(f"    equivalence: {'consistent' if ji.equivalent else 'INCONSISTENT'}")
        if self.break_search is not None:
            lines += ["", *break_text(self.break_search)]
        lines.append("")
        return "\n".join(lines)


def build_report(
    g: GroupedConfusion,
    eps: float,
    break_budget: int | None = None,
) -> FairnessReport:
    """Run the full audit pipeline over a grouped confusion table."""
    verdicts = (independence(g, eps), sufficiency(g, eps), separation(g, eps))
    perfect_report = check_conservativeness(g, eps) if is_perfect(g) else None
    joint = check_joint_independence_iff(g, eps) if is_positive(g) else None
    search = None
    if break_budget is not None:
        try:
            search = BreakSearch(break_budget, find_break(g, eps, break_budget))
        except PreconditionError as exc:
            search = BreakSearch(break_budget, None, str(exc))
    return FairnessReport(eps, g, verdicts, perfect_report, joint, search)


# ---------------------------------------------------------------------------
# Text renderers: the lines of one result type each
# ---------------------------------------------------------------------------


def break_payload(search: BreakSearch) -> dict[str, Any]:
    """The ``break_search`` object of an audit's JSON."""
    return jsonable(search)


def break_text(search: BreakSearch) -> list[str]:
    lines = [f"accuracy-increment break search (budget = {search.budget})"]
    witness = search.witness
    if search.note is not None:
        lines.append(f"  skipped: {search.note}")
    elif witness is None:
        lines.append("  no measure-breaking increment within budget (NONE)")
    else:
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


def demo_text(demo: Demo) -> list[str]:
    highlights = demo.highlights
    _, suff_after, sep_after = demo.after.verdicts
    p, q = demo.after.grouped.groups
    lines = [
        "demonstration: an accuracy increment that breaks sufficiency and separation",
        "",
        "----- before -----",
        demo.before.text(),
        f"increment (accuracy rises in every group): {increment_text(demo.increment)}",
        "",
        "----- after -----",
        demo.after.text(),
        "highlights",
    ]
    for rate, verdict in (("ppv", suff_after), ("fnr", sep_after)):
        lines.append(
            f"  {rate}: {p} {num_text(highlights[rate][p])} vs "
            f"{q} {num_text(highlights[rate][q])}, "
            f"gap {num_text(highlights[f'{rate}_gap'])} -> "
            f"{verdict.measure} {'holds' if verdict.holds else 'broken'}"
        )
    lines.append(f"  fpr: gap {num_text(highlights['fpr_gap'])} (unchanged)")
    return lines


def reservoir_text(result: ReservoirAttackResult) -> list[str]:
    plan = result.plan
    lines = [
        f"reservoir attack on group {result.target_group!r}",
        f"  plan: hire z_plus={plan.z_plus}, reject z_minus={plan.z_minus} "
        f"of a reservoir of z={plan.z} qualified candidates",
    ]
    for group in result.before.groups:
        before, after = matrix_text(result.before[group]), matrix_text(result.after[group])
        lines.append(f"  {group}: {before} -> {after}")
    for measure in ("separation", "independence"):
        for stage in ("before", "after"):
            lines.append(f"  {stage:6} {verdict_text(getattr(result, f'{measure}_{stage}'))}")
    return lines


def swap_text(swap: SwapAudit) -> list[str]:
    scan = swap.lipschitz
    lines = [
        f"swap attack in group {swap.group!r}",
        f"  swapped predictions of {swap.swapped_pair[0]} (false negative) and "
        f"{swap.swapped_pair[1]} (true positive), score gap {swap.score_gap:.6f}",
        f"  confusion matrices unchanged: {'yes' if swap.matrices_unchanged else 'NO'}",
        f"  lipschitz violations at scale {scan.scale}: {len(scan.violations)}"
        f" (swapped pair flagged: {'yes' if scan.swapped_pair_flagged else 'no'})",
    ]
    for id_a, id_b, d in scan.violations[:10]:
        lines.append(f"    {id_a} vs {id_b}: D=1, d={d:.6f}, margin={1.0 - d:.6f}")
    if len(scan.violations) > 10:
        lines.append(f"    ... and {len(scan.violations) - 10} more")
    return lines


def props_text(props: PropertySuites) -> list[str]:
    lines = [
        f"property verification suites (seed = {props.seed}, "
        f"{props.count} instances each, eps = {props.eps})",
        "",
    ]
    for k, suite in props.ci_properties.items():
        floor = isinstance(suite, FlooredCISuite)
        lines.append(
            f"  conditional-independence property {k}: "
            f"{suite.non_vacuous} non-vacuous, {suite.vacuous} vacuous, {suite.failures} failures"
            + (f", positivity floor {suite.positivity_floor}" if floor else "")
        )
    ji = props.joint_independence
    for label, suite in (
        ("perfect predictor => sufficiency & separation", props.perfect_predictor),
        ("positive proportional tables (suff & sep <-> A indep (Y,R), both true)", ji.proportional),
        ("positive non-proportional tables (both sides false)", ji.nonproportional),
    ):
        lines.append(f"  {label}: {suite.failures} failures")
    return [*lines, "", f"total failures: {props.failures_total}"]


def render_text(result: Any) -> str:
    """A command's text output, from the renderer of its result's type."""
    if isinstance(result, FairnessReport):
        return result.text()
    renderers = (
        (BreakSearch, break_text),
        (Demo, demo_text),
        (ReservoirAttackResult, reservoir_text),
        (SwapAudit, swap_text),
        (PropertySuites, props_text),
    )
    lines = next(write for kind, write in renderers if isinstance(result, kind))(result)
    return "\n".join([*lines, ""])
