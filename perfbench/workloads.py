"""Seeded inputs, expected facts and output checks for the benchmark workloads.

Each ``make_*`` function draws everything from ``random.Random(seed)``, writes
the input file the CLI will read (if any) into ``workdir`` and returns a
:class:`Case`: the CLI arguments, the exit code the command must return, the
amount of work the input defines, and the facts :func:`check` needs. The
facts come from the generator itself or from oracles in this file that share
no code with fairaudit, so a check can fail when the program is wrong.

The workloads stress different layers:

* ``audit_ingest``: ``audit`` on 100k scored rows in 4 groups; CSV ingest
  dominates.
* ``break_search``: ``counterexample --budget 11`` on 6 identical groups where
  one increment is feasible and breaks nothing, so the break search walks its
  whole space.
* ``swap_scan``: ``attack swap`` on 400 scored rows; the O(n^2) Lipschitz scan
  and the 8 MB of JSON it renders dominate.
* ``props_suite``: ``check-props --count 300``; the generators and the
  CI-property kernel dominate, and no CSV is read.

Each run of the CLI takes about a second, so a run of the benchmark gathers
enough samples for its medians.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

#: Label spellings the CLI accepts by default, mixed so ingest parses each.
LABELS = (("1", "0"), ("true", "false"), ("Yes", "No"), ("+", "-"), ("TRUE", "FALSE"))


@dataclass(frozen=True)
class Case:
    """One generated workload input and what its output must show."""

    name: str
    argv: tuple[str, ...]
    exit_code: int
    work: int
    work_unit: str
    facts: dict[str, Any] = field(default_factory=dict)


def _label(rng: random.Random, value: bool) -> str:
    positive, negative = rng.choice(LABELS)
    return positive if value else negative


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# audit_ingest
# ---------------------------------------------------------------------------

#: Groups of the audited CSV.
AUDIT_GROUPS = 4
CELLS = ("a", "b", "c", "d")  # TP, FP, FN, TN
CELL_LABELS = {"a": (True, True), "b": (False, True), "c": (True, False), "d": (False, False)}


def plant_counts(rng: random.Random, rows: int) -> dict[str, dict[str, int]]:
    """Per-group confusion counts summing to ``rows``, every cell positive and
    the groups' selection rates not all equal, so independence fails."""
    while True:
        weights = [rng.uniform(0.5, 1.5) for _ in range(AUDIT_GROUPS)]
        sizes = [int(rows * w / sum(weights)) for w in weights]
        sizes[-1] += rows - sum(sizes)
        planted = {}
        for i, size in enumerate(sizes):
            cell_weights = [rng.uniform(0.1, 1.0) for _ in CELLS]
            cells = [max(1, int(size * w / sum(cell_weights))) for w in cell_weights]
            cells[-1] = size - sum(cells[:-1])
            planted[f"g{i}"] = dict(zip(CELLS, cells))
        selection = {Fraction(m["a"] + m["b"], sum(m.values())) for m in planted.values()}
        if min(min(m.values()) for m in planted.values()) > 0 and len(selection) > 1:
            return planted


def make_audit_ingest(seed: int, workdir: Path, rows: int = 100_000) -> Case:
    rng = random.Random(seed)
    planted = plant_counts(rng, rows)
    cells = [
        (group, cell) for group, counts in planted.items() for cell in CELLS
        for _ in range(counts[cell])
    ]
    rng.shuffle(cells)
    body = []
    for i, (group, cell) in enumerate(cells):
        y, r = CELL_LABELS[cell]
        body.append([f"u{i:07d}", group, _label(rng, y), _label(rng, r), f"{rng.random():.4f}"])
    path = workdir / "audit_ingest.csv"
    _write_csv(path, ["id", "group", "y_true", "y_pred", "score"], body)
    return Case(
        name="audit_ingest",
        argv=("audit", str(path), "--format", "json"),
        exit_code=1,
        work=rows,
        work_unit="rows",
        facts={"matrices": planted, "rows": rows},
    )


def _check_audit(case: Case, out: dict[str, Any]) -> str | None:
    if out["matrices"] != case.facts["matrices"]:
        return "matrices differ from the planted counts"
    if out["input"]["total_records"] != case.facts["rows"]:
        return "total_records differs from the rows written"
    if out["all_hold"] is not False or out["measures"]["independence"]["holds"] is not False:
        return "independence holds although the planted selection rates differ"
    return None


# ---------------------------------------------------------------------------
# break_search
# ---------------------------------------------------------------------------


def candidate_count(groups: int, budget: int) -> int:
    """Size of the break search's input-defined space: every composition of a
    total t in [groups, budget] into ``groups`` positive parts, times a
    direction (FN->TP or FP->TN) per group."""
    return sum(math.comb(t - 1, groups - 1) for t in range(groups, budget + 1)) * 2**groups


def make_break_search(
    seed: int, workdir: Path, groups: int = 6, budget: int = 11
) -> Case:
    """``groups`` identical matrices (a, 0, 1, d): the only feasible increment
    moves the one false negative of every group, which keeps the groups
    identical, so no witness exists and the whole space is searched."""
    rng = random.Random(seed)
    a, d = rng.randint(2, 4), rng.randint(2, 4)
    cells = [
        (f"g{i}", cell) for i in range(groups) for cell, count in (("a", a), ("c", 1), ("d", d))
        for _ in range(count)
    ]
    rng.shuffle(cells)
    body = []
    for i, (group, cell) in enumerate(cells):
        y, r = CELL_LABELS[cell]
        body.append([f"u{i:04d}", group, _label(rng, y), _label(rng, r)])
    path = workdir / "break_search.csv"
    _write_csv(path, ["id", "group", "y_true", "y_pred"], body)
    return Case(
        name="break_search",
        argv=("counterexample", str(path), "--budget", str(budget), "--format", "json"),
        exit_code=0,
        work=candidate_count(groups, budget),
        work_unit="candidates",
        facts={"budget": budget, "witness": None},
    )


def _check_break(case: Case, out: dict[str, Any]) -> str | None:
    if out["budget"] != case.facts["budget"]:
        return "budget differs from the one requested"
    if out["note"] is not None:
        return f"search was skipped: {out['note']}"
    if out["witness"] is not None:
        return "a witness was returned although no increment can break the measures"
    return None


# ---------------------------------------------------------------------------
# swap_scan
# ---------------------------------------------------------------------------

#: Groups of the swap CSV, and how many negatives scored 0 and positives
#: scored 1 are planted outside the target group g0.
SWAP_GROUPS = 3
SWAP_BOUNDARY = 2


def count_lipschitz_violations(
    records: list[tuple[str, bool, float]], scale: float = 1.0
) -> int:
    """Pairs with different predictions whose score gap satisfies
    ``abs(s - t) / scale < 1``, counted in O(n log n).

    ``records`` are ``(id, prediction, score)``. The predicate is evaluated in
    the same float expression the scan uses, so a gap that equals ``scale``
    only after rounding lands on the same side. It is monotone in ``t`` on
    each side of ``s``, so bisecting on it finds the exact boundaries.
    """
    negatives = sorted(score for _, r, score in records if not r)
    count = 0
    for _, r, s in records:
        if not r:
            continue

        def close(t: float) -> bool:
            return abs(s - t) / scale < 1.0

        low = bisect.bisect_left(negatives, True, key=lambda t: t >= s or close(t))
        high = bisect.bisect_left(negatives, True, key=lambda t: t > s and not close(t))
        count += high - low
    return count


def swap_pair(records: list[tuple[str, bool, bool, float]]) -> tuple[str, str]:
    """The pair the swap attack must pick among ``(id, y, r, score)`` members
    of one group: the lowest-scored false negative and the highest-scored
    true positive, ties broken by id."""
    fn = min((score, rid) for rid, y, r, score in records if y and not r)
    tp = min((-score, rid) for rid, y, r, score in records if y and r)
    return fn[1], tp[1]


def make_swap_scan(seed: int, workdir: Path, rows: int = 400) -> Case:
    """``rows`` scored records, half predicted positive. The target group g0
    has scores strictly inside (0, 1), so its swapped pair is flagged; the
    other groups get SWAP_BOUNDARY negatives scored 0 and as many positives
    scored 1, whose pairs sit exactly on the ``abs(gap) / scale < 1``
    boundary."""
    rng = random.Random(seed)
    predictions = [True] * (rows // 2) + [False] * (rows - rows // 2)
    rng.shuffle(predictions)
    members = []
    for i, r in enumerate(predictions):
        group = f"g{i % SWAP_GROUPS}"
        if group == "g0":
            score = f"{rng.randint(1, 999) / 1000:.3f}"
        else:
            score = f"{rng.randint(0, 1000) / 1000:.3f}"
        members.append([f"u{i:04d}", group, rng.random() < 0.6, r, score])
    for r, score in ((True, "1.000"), (False, "0.000")):
        for member in [m for m in members if m[1] != "g0" and m[3] == r][:SWAP_BOUNDARY]:
            member[4] = score
    scores = {m[0]: float(m[4]) for m in members}
    pair = swap_pair([(m[0], m[2], m[3], scores[m[0]]) for m in members if m[1] == "g0"])
    if scores[pair[1]] <= scores[pair[0]]:
        raise ValueError(f"seed {seed}: no true positive in g0 outscores a false negative")
    swapped = {pair[0]: True, pair[1]: False}
    after = [(m[0], swapped.get(m[0], m[3]), scores[m[0]]) for m in members]
    path = workdir / "swap_scan.csv"
    body = [
        [rid, group, _label(rng, y), _label(rng, r), score] for rid, group, y, r, score in members
    ]
    _write_csv(path, ["id", "group", "y_true", "y_pred", "score"], body)
    return Case(
        name="swap_scan",
        argv=("attack", "swap", str(path), "--group", "g0", "--format", "json"),
        exit_code=0,
        work=rows * (rows - 1) // 2,
        work_unit="pairs",
        facts={"swapped_pair": list(pair), "violations": count_lipschitz_violations(after)},
    )


def _check_swap(case: Case, out: dict[str, Any]) -> str | None:
    if out["swapped_pair"] != case.facts["swapped_pair"]:
        return f"swapped {out['swapped_pair']}, expected {case.facts['swapped_pair']}"
    if out["matrices_unchanged"] is not True:
        return "the swap changed a confusion matrix"
    lipschitz = out["lipschitz"]
    if lipschitz["swapped_pair_flagged"] is not True:
        return "the swapped pair is not flagged as a Lipschitz violation"
    if len(lipschitz["violations"]) != case.facts["violations"]:
        return (
            f"{len(lipschitz['violations'])} Lipschitz violations, "
            f"expected {case.facts['violations']}"
        )
    return None


# ---------------------------------------------------------------------------
# props_suite
# ---------------------------------------------------------------------------

#: Suites ``check-props`` runs, each on ``--count`` instances.
PROP_SUITES = 8


def make_props_suite(seed: int, workdir: Path, count: int = 300) -> Case:
    return Case(
        name="props_suite",
        argv=("check-props", "--seed", str(seed), "--count", str(count), "--format", "json"),
        exit_code=0,
        work=PROP_SUITES * count,
        work_unit="instances",
        facts={"count": count},
    )


def _check_props(case: Case, out: dict[str, Any]) -> str | None:
    count = case.facts["count"]
    if out["failures_total"] != 0:
        return f"{out['failures_total']} property failures"
    suites = list(out["ci_properties"].values())
    if len(suites) != 5:
        return f"{len(suites)} CI-property suites, expected 5"
    for suite in suites:
        if suite["instances"] != count or suite["vacuous"] + suite["non_vacuous"] != count:
            return f"CI suite counts do not add up to {count}: {suite}"
    joint = out["joint_independence"]
    others = (out["perfect_predictor"], joint["proportional"], joint["nonproportional"])
    if any(suite["instances"] != count for suite in others):
        return f"a property suite did not run {count} instances"
    return None


# ---------------------------------------------------------------------------
# Registry and checks
# ---------------------------------------------------------------------------

MAKERS: dict[str, Callable[[int, Path], Case]] = {
    "audit_ingest": make_audit_ingest,
    "break_search": make_break_search,
    "swap_scan": make_swap_scan,
    "props_suite": make_props_suite,
}

CHECKS: dict[str, Callable[[Case, dict[str, Any]], str | None]] = {
    "audit_ingest": _check_audit,
    "break_search": _check_break,
    "swap_scan": _check_swap,
    "props_suite": _check_props,
}


def check(case: Case, exit_code: int, stdout: bytes) -> str | None:
    """Why the output of one run of ``case`` is wrong, or ``None`` if it is
    right."""
    if exit_code != case.exit_code:
        return f"exit code {exit_code}, expected {case.exit_code}"
    try:
        out = json.loads(stdout)
        return CHECKS[case.name](case, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
