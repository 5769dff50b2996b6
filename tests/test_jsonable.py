"""``report.render`` against the payload builders and the converter it replaced.

The oracle below is the hand-written payload code ``report`` and ``cli`` had
before one converter, ``jsonable``, took its place, kept verbatim apart from
the names:
``num_payload``, ``verdict_payload``, ``matrix_payload``,
``matrices_payload``, ``stats_payload``, ``increment_payload``,
``break_payload``, the body of ``FairnessReport.payload`` and the reservoir
payload of ``cmd_attack``. Each copied a result's fields into a dict under the
fields' own names, so ``render`` must write a result as ``json.dumps(...,
sort_keys=True, indent=2)`` writes its oracle payload, and as ``json_oracle``
writes it through ``jsonable``. Text comparison also tells ``1`` from ``1.0``
and ``True`` and fails on any result object left in. Plain payloads are
compared with ``json.dumps`` directly, and what JSON cannot hold is refused.

Tables have 2-4 groups with cells 0-5, so undefined rates and
NOT-COMPARABLE verdicts occur; perfect, positive and proportional tables feed
the checks that need them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st
from builders import export_csv, synthesize_dataset
from json_oracle import dumps, jsonable

from fairaudit import cli
from fairaudit.adversary import Violations, reservoir_attack
from fairaudit.confusion import ConfusionMatrix, GroupedConfusion
from fairaudit.conservativeness import (
    DIRECTIONS,
    BreakWitness,
    GroupShift,
    Increment,
    check_conservativeness,
    check_joint_independence_iff,
    find_break,
)
from fairaudit.distributions import PropertyVerdict
from fairaudit.errors import Infeasible, PreconditionError
from fairaudit.ingest import CsvSchema
from fairaudit.measures import MeasureVerdict, independence, separation, sufficiency
from fairaudit.report import (
    STATS,
    BreakSearch,
    FairnessReport,
    LipschitzCheck,
    Suite,
    break_payload,
    build_report,
    header,
    render,
    verdict_status,
)

EPS = 1e-9

# ---------------------------------------------------------------------------
# Oracle: the previous payload builders, verbatim
# ---------------------------------------------------------------------------


def num_payload(x: Any) -> Any:
    if x is None:
        return None
    return {"exact": str(x), "value": float(x)}


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


def matrix_payload(m: ConfusionMatrix) -> dict[str, int]:
    return {"a": m.a, "b": m.b, "c": m.c, "d": m.d}


def matrices_payload(g: GroupedConfusion) -> dict[str, dict[str, int]]:
    return {group: matrix_payload(g[group]) for group in g.groups}


def stats_payload(m: ConfusionMatrix) -> dict[str, Any]:
    return {name: num_payload(getattr(m, name)) for name in STATS}


def increment_payload(inc: Increment) -> list[dict[str, Any]]:
    return [
        {"group": s.group, "direction": s.direction, "count": s.count}
        for s in inc.shifts
    ]


def oracle_break_payload(
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


def oracle_report_payload(self: FairnessReport) -> dict[str, Any]:
    g = self.grouped
    out: dict[str, Any] = {
        **header(self.eps),
        "input": {
            "total_records": g.total,
            "group_sizes": {group: g[group].n for group in g.groups},
            "empty_groups": list(g.empty_groups),
        },
        "matrices": matrices_payload(g),
        "group_stats": {group: stats_payload(g[group]) for group in g.groups},
        "measures": {v.measure: verdict_payload(v) for v in self.verdicts},
        "all_hold": self.all_hold(),
        "conservativeness": {
            "perfect_predictor": self.perfect_report is not None,
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
    search = self.break_search
    if search is not None:
        out["break_search"] = oracle_break_payload(search.witness, search.budget, search.note)
    return out


def oracle_reservoir_payload(g: GroupedConfusion, target: str, result: Any) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "attack": "reservoir",
        "target_group": target,
        "plan": {
            "z": result.plan.z,
            "z_plus": result.plan.z_plus,
            "z_minus": result.plan.z_minus,
        },
        "before": matrices_payload(g),
        "after": matrices_payload(result.after),
    }
    for measure in ("separation", "independence"):
        for stage in ("before", "after"):
            verdict = getattr(result, f"{measure}_{stage}")
            payload[f"{measure}_{stage}"] = verdict_payload(verdict)
    return payload


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def dumped(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def assert_same_json(new: Any, old: Any) -> None:
    """``render`` writes ``new`` as ``json.dumps`` writes the oracle payload
    ``old``, and as the previous converter wrote ``new``."""
    text = render(new)
    assert text == dumped(old) + "\n"
    assert text == dumps(jsonable(new))


def grouped(cells: list[tuple[int, int, int, int]]) -> GroupedConfusion:
    return GroupedConfusion({f"g{i}": ConfusionMatrix(*m) for i, m in enumerate(cells)})


def random_table(rng: random.Random, low: int = 0, perfect: bool = False) -> GroupedConfusion:
    """2-4 groups, cells in ``low``..5, every group counting a record."""
    cells = []
    for _ in range(rng.randint(2, 4)):
        while True:
            a, b, c, d = (rng.randint(low, 5) for _ in range(4))
            if perfect:
                b = c = 0
            if a + b + c + d:
                break
        cells.append((a, b, c, d))
    return grouped(cells)


def proportional_table(rng: random.Random, low: int = 0) -> GroupedConfusion:
    """2-4 groups, each a multiple (1-3) of one base matrix with cells in
    ``low``..5: sufficiency and separation hold unless a rate is undefined."""
    base = random_table(rng, low)["g0"]
    return GroupedConfusion(
        {f"g{i}": base.scaled(rng.randint(1, 3)) for i in range(rng.randint(2, 4))}
    )


SEEDS = range(60)

cell = st.integers(0, 5)
matrix = st.tuples(cell, cell, cell, cell).filter(any)
tables = st.lists(matrix, min_size=2, max_size=4).map(grouped)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


def assert_table_matches(g: GroupedConfusion) -> None:
    assert_same_json(g, matrices_payload(g))
    for m in g.matrices.values():
        assert_same_json(m, matrix_payload(m))
        assert_same_json({name: getattr(m, name) for name in STATS}, stats_payload(m))
    for v in (independence(g, EPS), sufficiency(g, EPS), separation(g, EPS)):
        assert_same_json(v, verdict_payload(v))


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_tables_verdicts_and_reports(seed: int) -> None:
    rng = random.Random(seed)
    g = random_table(rng)
    assert_table_matches(g)
    for budget in (None, 0, 2):
        report = build_report(g, EPS, budget)
        assert_same_json(report, oracle_report_payload(report))


@given(tables)
def test_hypothesis_tables_verdicts(g: GroupedConfusion) -> None:
    assert_table_matches(g)
    report = build_report(g, EPS, 1)
    assert_same_json(report, oracle_report_payload(report))


def test_tables_cover_not_comparable_and_both_outcomes() -> None:
    statuses = {
        verdict_status(m(random_table(random.Random(seed)), EPS))
        for seed in SEEDS
        for m in (independence, sufficiency, separation)
    }
    assert statuses == {"holds", "fails", "not-comparable"}


@pytest.mark.parametrize("seed", SEEDS)
def test_perfect_tables_conservativeness(seed: int) -> None:
    g = random_table(random.Random(seed), perfect=True)
    report = build_report(g, EPS)
    assert report.perfect_report is not None
    expected = oracle_report_payload(report)["conservativeness"]["perfect_check"]
    assert_same_json(check_conservativeness(g, EPS), expected)
    assert_same_json(report, oracle_report_payload(report))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("table", [random_table, proportional_table])
def test_positive_tables_joint_independence(seed: int, table: Any) -> None:
    g = table(random.Random(seed), low=1)
    report = build_report(g, EPS)
    assert report.joint_independence is not None
    expected = oracle_report_payload(report)["conservativeness"]["joint_independence"]
    assert_same_json(check_joint_independence_iff(g, EPS), expected)


def break_cases() -> list[tuple[GroupedConfusion, int]]:
    rng = random.Random(3)
    return [(proportional_table(rng), budget) for _ in range(40) for budget in range(5)]


def test_break_witnesses_and_none() -> None:
    found = {"witness": 0, "none": 0, "note": 0}
    for g, budget in break_cases():
        try:
            witness, note = find_break(g, EPS, budget), None
        except PreconditionError as exc:
            witness, note = None, str(exc)
        found["note" if note else "witness" if witness else "none"] += 1
        assert_same_json(
            break_payload(BreakSearch(budget, witness, note)),
            oracle_break_payload(witness, budget, note),
        )
        if witness is not None:
            assert_same_json(witness.increment, increment_payload(witness.increment))
        report = build_report(g, EPS, budget)
        assert_same_json(report, oracle_report_payload(report))
    assert min(found.values()) > 0, found


@given(
    st.lists(
        st.tuples(st.sampled_from(DIRECTIONS), st.integers(0, 5)), min_size=1, max_size=4
    ).filter(lambda shifts: any(count for _, count in shifts))
)
def test_increments(shifts: list[tuple[str, int]]) -> None:
    inc = Increment(
        tuple(GroupShift(f"g{i}", direction, count) for i, (direction, count) in enumerate(shifts))
    )
    assert_same_json(inc, increment_payload(inc))


def test_feasible_reservoir_attacks(tmp_path: Path) -> None:
    rng = random.Random(5)
    feasible = 0
    for i in range(40):
        g = proportional_table(rng)
        target = rng.choice(g.groups)
        try:
            result = reservoir_attack(g, target, 13, EPS)
        except (Infeasible, PreconditionError):
            continue
        feasible += 1
        path = tmp_path / f"t{i}.csv"
        export_csv(synthesize_dataset(g), str(path))
        argv = ["attack", "reservoir", str(path), "--group", target, "--z-max", "13"]
        code, attack = cli.cmd_attack(cli.build_parser().parse_args(argv))
        assert code == 0
        assert_same_json(attack, oracle_reservoir_payload(g, target, result))
    assert feasible >= 10


def test_none_and_plain_values_pass_through() -> None:
    for plain in (None, [1, "a"], ("a", True, 1.5)):
        assert render(plain) == dumped(plain) + "\n"


#: Floats JSON writes with care: a signed zero, the least subnormal, a tiny
#: normal, and NaN and the infinities, which it spells its own way.
FLOATS = (-0.0, 5e-324, 1e-300, math.nan, math.inf, -math.inf)
#: Strings JSON escapes: quotes, backslashes, control characters, non-ASCII
#: and astral letters.
STRINGS = ('q"', "b\\", "n\n\t", "c\x01\x7f", "\u00e9", "\U0001f600", "")

plain_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(FLOATS)
    | st.text()
    | st.sampled_from(STRINGS),
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4)
    | st.dictionaries(st.text() | st.sampled_from(STRINGS), inner, max_size=4),
    max_leaves=24,
)


@given(plain_values)
def test_plain_payloads_are_written_as_json_dumps_writes_them(payload: Any) -> None:
    assert render(payload) == dumped(payload) + "\n"


def test_render_still_rejects_a_result_object() -> None:
    ds = synthesize_dataset(grouped([(1, 1, 1, 1), (2, 0, 0, 1)]))
    with pytest.raises(TypeError, match="Dataset"):
        render(ds)
    with pytest.raises(TypeError, match="Dataset"):
        render({**header(EPS), "dataset": ds})
    # A named tuple is a tuple, which JSON would write as a bare array of its
    # values; one that is not a listed result is refused instead, also nested.
    unlisted = (PropertyVerdict("vacuous", ()), ds.records[0], CsvSchema(groups=("p",)))
    for result in unlisted:
        name = type(result).__name__
        with pytest.raises(TypeError, match=name):
            render(result)
        with pytest.raises(TypeError, match=name):
            render({"results": (1, result)})


@pytest.mark.parametrize(
    "unwritable",
    [PropertyVerdict("vacuous", ()), {"ok": 1, 2: "key"}, {"p", "q"}],
    ids=["unlisted-named-tuple", "non-str-key", "set"],
)
def test_what_json_cannot_hold_is_refused_and_never_written(
    unwritable: Any, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    with pytest.raises(TypeError):
        render(unwritable)
    monkeypatch.setattr(cli, "cmd_demo", lambda args: (0, Suite(1, (0, unwritable))))
    with pytest.raises(TypeError):
        cli.main(["demo", "--format", "json"])
    assert capsys.readouterr().out == ""


def test_swap_rows_are_written_as_violation_objects_at_any_depth() -> None:
    rows = Violations([("a", "b", 0.25), ("a", "c", 0.5)])
    check = LipschitzCheck(1.0, rows, ("u",), True)
    expected = {
        "scale": 1.0,
        "violations": [
            {"ids": [a, b], "individual_distance": d, "margin": 1.0 - d, "prediction_distance": 1.0}
            for a, b, d in rows
        ],
        "skipped_unscored": ["u"],
        "swapped_pair_flagged": True,
    }
    for depth in range(4):
        nested: Any = check
        want: Any = expected
        for _ in range(depth):
            nested, want = {"x": nested}, {"x": want}
        assert render(nested) == dumped(want) + "\n"
