"""Command results and every output made from them: each CLI command returns
one result, and this module decides how it reads.

:func:`render` is the one JSON writer. It writes a result as the object of
its :func:`members`, the fields by name (a verdict adds ``status``); an exact
rate is ``{"exact": "<fraction>", "value": <float>}``, a ``GroupedConfusion``
is its ``matrices``, an ``Increment`` its ``shifts`` and a
``FairnessReport`` its ``payload()``. Dicts with ``str`` keys, tuples, lists
and plain values are written as JSON writes them; any other value, a named
tuple that is not a result included, is refused. The Lipschitz rows of
``attack swap`` stay the scan's plain rows, each written from a few shared
pieces. Keys are sorted, so identical input yields identical bytes.
:func:`render_text` picks the renderer of the result's type; text shows
fractions with 6-decimal floats alongside.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple

from . import __version__
from .adversary import ReservoirAttackResult, ReservoirPlan, Violations
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


def empty_groups_warning(g: GroupedConfusion) -> str:
    """Names the declared groups without records, which every command excludes."""
    return f"warning: declared group(s) without records, excluded: {', '.join(g.empty_groups)}"


def increment_text(inc: Increment) -> str:
    return ", ".join(
        f"{s.group}: {s.count} {'FN->TP' if s.direction == 'fn_to_tp' else 'FP->TN'}"
        for s in inc.shifts
    )


# ---------------------------------------------------------------------------
# Command results. A fixed last field names the command in its JSON:
# ``attack``, ``command`` or ``demo``.
# ---------------------------------------------------------------------------


class BreakSearch(NamedTuple):
    """A break search's witness (``None`` if none was found), or why it was skipped."""

    budget: int
    witness: BreakWitness | None
    note: str | None = None


class Counterexample(NamedTuple):
    """The break search of ``counterexample``: a :class:`BreakSearch` that names its command."""

    budget: int
    witness: BreakWitness | None
    note: str | None = None
    command: str = "counterexample"


class Demo(namedtuple("Demo", "before increment after highlights demo")):
    """``highlights``: the rates and gaps that show sufficiency and separation breaking."""

    __slots__ = ()

    def __new__(cls, before: FairnessReport, increment: Increment, after: FairnessReport) -> Demo:
        g, (_, suff, sep) = after.grouped, after.verdicts
        highlights: dict[str, Any] = {"fpr_gap": sep.component_gaps["fpr_gap"]}
        for rate, verdict in (("ppv", suff), ("fnr", sep)):
            highlights[rate] = {group: getattr(g[group], rate) for group in g.groups}
            highlights[f"{rate}_gap"] = verdict.component_gaps[f"{rate}_gap"]
        demo = "accuracy increment breaking sufficiency and separation"
        return super().__new__(cls, before, increment, after, highlights, demo)

    def __getnewargs__(self) -> tuple:
        return self.before, self.increment, self.after


class LipschitzCheck(NamedTuple):
    """``violations`` is the scan's own list; :func:`render` writes each row as an object."""

    scale: float
    violations: Violations
    skipped_unscored: tuple[str, ...]
    swapped_pair_flagged: bool


class SwapAudit(NamedTuple):
    group: str
    swapped_pair: tuple[str, str]
    score_gap: float
    matrices_unchanged: bool
    matrices: GroupedConfusion
    verdicts_after: dict[str, MeasureVerdict]
    lipschitz: LipschitzCheck
    attack: str = "swap"


class Suite(NamedTuple):
    instances: int
    failures: int


class CISuite(NamedTuple):
    instances: int
    failures: int
    non_vacuous: int
    vacuous: int


class FlooredCISuite(NamedTuple):
    instances: int
    failures: int
    non_vacuous: int
    vacuous: int
    positivity_floor: float


class JointIndependenceSuites(NamedTuple):
    proportional: Suite
    nonproportional: Suite


class PropertySuites(NamedTuple):
    seed: int
    count: int
    eps: float
    ci_properties: dict[str, CISuite | FlooredCISuite]
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
    Counterexample,
    Demo,
    LipschitzCheck,
    SwapAudit,
    Suite,
    CISuite,
    FlooredCISuite,
    JointIndependenceSuites,
    PropertySuites,
)


def members(result: Any) -> dict[str, Any]:
    """The keys and values of the JSON object a result is written as: its
    fields by name and, for a verdict, ``status``; an audit's ``payload()``."""
    if isinstance(result, FairnessReport):
        return result.payload()
    out = dict(zip(result._fields, result))
    if isinstance(result, MeasureVerdict):
        out["status"] = verdict_status(result)
    return out


def header(eps: float) -> dict[str, Any]:
    """The ``tool`` and ``eps`` keys every JSON payload starts from."""
    return {"tool": {"name": "fairaudit", "version": __version__}, "eps": eps}


class _Memo(dict):
    """``memo[x]`` is ``fn(x)``, computed on the first lookup of ``x``; with a
    ``limit``, a lookup that misses when the memo is full empties it first."""

    def __init__(self, fn: Callable[[Any], str], limit: int | None = None) -> None:
        self.fn = fn
        self.limit = limit

    def __missing__(self, key: Any) -> str:
        if self.limit is not None and len(self) >= self.limit:
            self.clear()
        value = self[key] = self.fn(key)
        return value


#: The most row tails the writer keeps. The scan's rows come grouped by
#: margin, so the distances that repeat share one margin's group and few are
#: live at once; continuous scores give nearly every row its own distance.
TAIL_MEMO = 256


def render(payload: Any) -> str:
    """The JSON text of ``payload`` and a newline, in the bytes the ``json`` module
    writes with ``sort_keys=True, indent=2`` for the values the module docstring
    lists. Its pieces go to one list, joined once; a ``TypeError`` leaves no text."""
    out: list[str] = []
    _write(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(x: Any, out: list[str], nl: str) -> None:
    """Append the text of ``x`` to ``out``; ``nl`` is a newline and the indent of its line."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):  # JSON spells repr's nan and inf NaN and Infinity
        out.append(float.__repr__(x).replace("nan", "NaN").replace("inf", "Infinity"))
    elif isinstance(x, Fraction):
        out.append(f'{{{nl}  "exact": "{x}",{nl}  "value": {float(x)!r}{nl}}}')
    elif isinstance(x, dict):
        inner, sep = nl + "  ", "{"
        for key in sorted(x):  # encoding a key that is not a str is a TypeError
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write(x[key], out, inner)
            sep = ","
        out.append(nl + "}" if x else "{}")
    elif isinstance(x, Violations):
        _write_rows(x, out, nl)
    elif isinstance(x, GroupedConfusion):
        _write(x.matrices, out, nl)
    elif isinstance(x, Increment):
        _write(x.shifts, out, nl)
    elif isinstance(x, _RECORDS) or isinstance(x, FairnessReport):
        _write(members(x), out, nl)
    elif isinstance(x, (list, tuple)) and not hasattr(x, "_fields"):
        inner, sep = nl + "  ", "["
        for item in x:
            out.append(sep + inner)
            _write(item, out, inner)
            sep = ","
        out.append(nl + "]" if x else "[]")
    else:  # a set, say, or a named tuple that is not a result
        raise TypeError(f"render writes no {type(x).__name__}: not a result or JSON value")


def _write_rows(violations: Violations, out: list[str], nl: str) -> None:
    """Append the rows as objects, three pieces a row: its first id, its
    second id and its tail (the text after the ids), each a string shared
    by the rows that repeat it, while a tail is among the last :data:`TAIL_MEMO`."""
    row, key, item = nl + "  ", nl + "    ", nl + "      "
    heads = _Memo(lambda a: f',{row}{{{key}"ids": [{item}{encode_basestring_ascii(a)},')
    names = _Memo(lambda b: f"{item}{encode_basestring_ascii(b)}")
    tails = _Memo(
        lambda d: f'{key}],{key}"individual_distance": {d!r},{key}"margin": {1.0 - d!r},'
        f'{key}"prediction_distance": 1.0{row}}}',
        TAIL_MEMO,
    )
    out.append("[")
    first = len(out)
    last = None
    for a, b, d in violations:
        if d != last:  # equal distances mostly come in runs
            last = d
            tail = tails[d]
        out += (heads[a], names[b], tail)
    if violations:
        out[first] = out[first][1:]  # the first row takes no comma
    out.append(nl + "]" if violations else "]")


# ---------------------------------------------------------------------------
# The audit report
# ---------------------------------------------------------------------------


class FairnessReport(NamedTuple):
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
        """The audit's members, their values still results for :func:`render`."""
        g = self.grouped
        out: dict[str, Any] = {
            **header(self.eps),
            "input": {
                "total_records": g.total,
                "group_sizes": {group: g[group].n for group in g.groups},
                "empty_groups": g.empty_groups,
            },
            "matrices": g,
            "group_stats": {
                group: {name: getattr(g[group], name) for name in STATS} for group in g.groups
            },
            "measures": {v.measure: v for v in self.verdicts},
            "all_hold": self.all_hold(),
            "conservativeness": {
                "perfect_predictor": self.perfect_report is not None,
                "perfect_check": self.perfect_report,
                "joint_independence": self.joint_independence,
            },
        }
        if self.break_search is not None:
            out["break_search"] = self.break_search
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
            lines.append(f"  {empty_groups_warning(g)}")
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


#: The members of a ``break_search`` object; ``cli`` binds it for the benchmark's replay.
break_payload = members


def break_text(search: BreakSearch | Counterexample) -> list[str]:
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
        ((BreakSearch, Counterexample), break_text),
        (Demo, demo_text),
        (ReservoirAttackResult, reservoir_text),
        (SwapAudit, swap_text),
        (PropertySuites, props_text),
    )
    lines = next(write for kind, write in renderers if isinstance(result, kind))(result)
    return "\n".join([*lines, ""])
