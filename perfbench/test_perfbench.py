"""Tests of the benchmark's own generators, oracles and span arithmetic.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

import replay
import workloads
from spans import Tracer, self_time_by_name, self_times

from fairaudit.adversary import lipschitz_violations, swap_attack
from fairaudit.cli import CsvSchema, ingest_csv
from fairaudit.confusion import Dataset, Record, tabulate

SMALL = {
    "audit_ingest": {"rows": 400},
    "break_search": {"groups": 3, "budget": 5},
    "swap_scan": {"rows": 60},
    "props_suite": {"count": 5},
}


def make(name: str, seed: int, workdir: Path) -> workloads.Case:
    workdir.mkdir()
    return workloads.MAKERS[name](seed, workdir, **SMALL[name])


def inputs(workdir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in workdir.iterdir()}


@pytest.mark.parametrize("name", sorted(workloads.MAKERS))
def test_generator_is_determined_by_seed(tmp_path: Path, name: str) -> None:
    first = make(name, 7, tmp_path / "a")
    again = make(name, 7, tmp_path / "b")
    other = make(name, 8, tmp_path / "c")
    assert inputs(tmp_path / "a") == inputs(tmp_path / "b")
    assert (first.facts, first.work, first.exit_code) == (again.facts, again.work, again.exit_code)
    assert inputs(tmp_path / "a") != inputs(tmp_path / "c") or first.argv != other.argv


def test_planted_counts_match_ingest(tmp_path: Path) -> None:
    case = make("audit_ingest", 3, tmp_path / "w")
    g = tabulate(ingest_csv(case.argv[1], CsvSchema()))
    found = {group: {"a": m.a, "b": m.b, "c": m.c, "d": m.d} for group, m in g.matrices.items()}
    assert found == case.facts["matrices"]


def test_swap_facts_match_the_program(tmp_path: Path) -> None:
    case = make("swap_scan", 5, tmp_path / "w")
    result = swap_attack(ingest_csv(case.argv[2], CsvSchema()), "g0")
    assert list(result.swapped_pair) == case.facts["swapped_pair"]
    assert len(lipschitz_violations(result.after).violations) == case.facts["violations"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scale", [1.0, 0.5, 0.3, 0.1])
def test_lipschitz_counter_matches_the_scan(seed: int, scale: float) -> None:
    rng = random.Random(seed)
    grid = [0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.9, 1.0]
    records = [
        Record(
            id=f"r{i:02d}",
            group="g",
            y=True,
            r=rng.random() < 0.5,
            score=rng.choice(grid) if rng.random() < 0.5 else round(rng.random(), 2),
        )
        for i in range(40)
    ]
    expected = len(lipschitz_violations(Dataset.from_records(records), scale).violations)
    triples = [(rec.id, rec.r, rec.score) for rec in records]
    assert workloads.count_lipschitz_violations(triples, scale) == expected


def test_swap_pair_breaks_ties_by_id() -> None:
    members = [
        ("b", True, False, 0.2),
        ("a", True, False, 0.2),
        ("d", True, True, 0.9),
        ("c", True, True, 0.9),
        ("e", False, True, 0.95),
    ]
    assert workloads.swap_pair(members) == ("a", "c")


@pytest.mark.parametrize("groups", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 2, 4])
def test_candidate_formula_matches_enumeration(groups: int, extra: int) -> None:
    budget = groups + extra
    vectors = itertools.product(range(1, budget + 1), repeat=groups)
    compositions = sum(1 for counts in vectors if sum(counts) <= budget)
    assert workloads.candidate_count(groups, budget) == compositions * 2**groups


def test_break_search_space_at_default_size(tmp_path: Path) -> None:
    assert workloads.candidate_count(6, 12) == 59_136
    assert workloads.make_break_search(1, tmp_path).work == 29_568


def test_check_rejects_wrong_output(tmp_path: Path) -> None:
    case = make("break_search", 1, tmp_path / "w")
    good = {"budget": case.facts["budget"], "note": None, "witness": None}
    assert workloads.check(case, 0, json.dumps(good).encode()) is None
    assert workloads.check(case, 1, json.dumps(good).encode()) is not None
    assert workloads.check(case, 0, json.dumps({**good, "witness": {}}).encode()) is not None
    assert workloads.check(case, 0, b"not json") is not None


def test_every_traced_call_site_exists() -> None:
    assert replay.install(lambda fn, name, measure: fn) == []


def test_self_time_subtracts_children_once() -> None:
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: together they cover 1..6
        ["c", 9.0, 12.0, 0],  # only 9..10 lies inside root
        ["leaf", 1.5, 2.0, 1],
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 0.5, 3, 3, 0.5])
    assert self_time_by_name(spans + [["a", 20.0, 21.0, None]]) == pytest.approx(
        {"root": 4, "a": 3.5, "b": 3, "c": 3, "leaf": 0.5}
    )


def test_tracer_nests_spans_and_counts() -> None:
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x * 2, "inner", lambda args, result: {"items": args["x"]})
    outer = tracer.wrap(lambda: inner(3) + inner(4), "outer")
    assert outer() == 14
    record = tracer.dump()
    assert record["run_id"] == "t"
    assert [(name, parent) for name, _, _, parent in record["spans"]] == [
        ("outer", None),
        ("inner", 0),
        ("inner", 0),
    ]
    assert record["counters"] == {"inner.calls": 2, "inner.items": 7, "outer.calls": 1}
    assert self_time_by_name(record["spans"]) == {"outer": 3.0, "inner": 2.0}
