"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every assertion uses the exact values and tolerances the criteria pin
down (exact rationals where inputs are integer counts).
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from builders import export_csv, random_scored_dataset, synthesize_dataset

from fairaudit.adversary import lipschitz_violations, reservoir_attack, swap_attack
from fairaudit.cli import main
from fairaudit.confusion import (
    ConfusionMatrix,
    GroupedConfusion,
    tabulate,
    to_joint,
)
from fairaudit.conservativeness import (
    FN_TO_TP,
    GroupShift,
    Increment,
    apply_increment,
    check_conservativeness,
    check_joint_independence_iff,
    check_proportional_preservation,
    find_break,
)
from fairaudit.distributions import EPS_DEFAULT, check_ci_property
from fairaudit.generators import (
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
from fairaudit.measures import (
    MEASURES,
    evaluate_measure,
    independence,
    measure_via_distribution,
    separation,
    sufficiency,
)

BEFORE = GroupedConfusion(
    {"p": ConfusionMatrix(10, 2, 3, 11), "q": ConfusionMatrix(20, 4, 6, 22)}
)


def _passed(criterion: int, description: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {description} ({elapsed:.2f}s)")


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    verdicts = (independence(BEFORE), sufficiency(BEFORE), separation(BEFORE))
    for verdict in verdicts:
        assert verdict.holds is True
        assert verdict.disparity == 0

    increment = Increment(
        (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 1))
    )
    after = apply_increment(BEFORE, increment)
    assert after["p"] == ConfusionMatrix(11, 2, 2, 11)
    assert after["q"] == ConfusionMatrix(21, 4, 5, 22)

    suff = sufficiency(after)
    sep = separation(after)
    assert suff.component_gaps["ppv_gap"] == Fraction(2, 325)
    assert abs(float(suff.component_gaps["ppv_gap"]) - 0.006154) < 1e-6
    assert sep.component_gaps["fnr_gap"] == Fraction(1, 26)
    assert abs(float(sep.component_gaps["fnr_gap"]) - 0.038462) < 1e-6
    assert sep.component_gaps["fpr_gap"] == 0
    assert after["p"].ppv == Fraction(11, 13)
    assert after["q"].ppv == Fraction(21, 25)

    code, out = run_cli("demo")
    assert code == 0
    for token in ("(a=10, b=2, c=3, d=11)", "(a=20, b=4, c=6, d=22)",
                  "11/13", "21/25", "2/325", "1/26"):
        assert token in out, token

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, "worked example reproduced exactly (2/325, 1/26, fpr 0)", elapsed)


def test_criterion_2_perfect_predictor_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    held = 0
    for _ in range(1000):
        g = random_perfect_grouped(rng)
        report = check_conservativeness(g)
        assert report.holds
        for verdict in (report.sufficiency, report.separation):
            for gap in verdict.component_gaps.values():
                assert gap is None or gap == 0
        held += 1
    assert held == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, "sufficiency and separation held on 1000/1000 perfect predictors", elapsed)


def test_criterion_3_joint_independence_iff_suite():
    start = time.perf_counter()
    rng = random.Random(3031)

    both_true = 0
    for _ in range(200):
        verdict = check_joint_independence_iff(random_proportional_grouped(rng))
        assert verdict.suff_and_sep is True
        assert verdict.joint_independent is True
        assert verdict.equivalent
        both_true += 1
    assert both_true == 200

    both_false = 0
    for _ in range(200):
        g = random_nonproportional_grouped(rng)
        verdict = check_joint_independence_iff(g)
        assert verdict.suff_and_sep is False
        assert verdict.ci_deviation > Fraction(1, 1000)
        assert verdict.joint_independent is False
        assert verdict.equivalent
        both_false += 1
    assert both_false == 200

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(3, "equivalence verified in both truth values, 200/200 each", elapsed)


def test_criterion_4_ci_algebra_suite():
    start = time.perf_counter()
    rng = random.Random(4042)
    per_property = 100
    for k in range(1, 6):
        non_vacuous = 0
        for i in range(per_property):
            h = None
            if k == 1:
                instance = random_ci_instance(rng)
            elif k == 2:
                instance = random_ci_instance(rng)
                h = random_map(rng, "X", "U", instance.domain("X"))
            elif k == 3:
                instance, h = random_functional_instance(rng)
            elif k == 4:
                instance = (
                    random_chain_instance(rng)
                    if i % 2 == 0
                    else random_pair_ci_instance(rng)
                )
            else:
                instance = random_product_instance(rng)
                assert instance.min_cell() >= 1e-3
            verdict = check_ci_property(k, instance, h)
            assert verdict.status == "pass", (k, verdict)
            non_vacuous += 1
        assert non_vacuous >= 100, k
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(4, "CI properties 1-5 passed on 100 non-vacuous instances each", elapsed)


def test_criterion_5_break_search_and_proportional_note():
    start = time.perf_counter()
    witness = find_break(BEFORE, budget=2)
    assert witness is not None
    assert witness.increment == Increment(
        (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 1))
    )
    assert set(witness.broken) == {"sufficiency", "separation"}

    report = check_proportional_preservation(BEFORE)
    assert report.increment == Increment(
        (GroupShift("p", FN_TO_TP, 1), GroupShift("q", FN_TO_TP, 2))
    )
    assert report.preserved
    assert report.sufficiency.disparity == 0
    assert report.separation.disparity == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(5, "break witness is the unit FN->TP pair; proportional (1,2) preserves", elapsed)


def test_criterion_6_reservoir_attack():
    start = time.perf_counter()
    result = reservoir_attack(BEFORE, "q", z_max=13)
    assert (result.plan.z, result.plan.z_plus, result.plan.z_minus) == (13, 10, 3)

    before_m, after_m = BEFORE["q"], result.after["q"]
    assert after_m == ConfusionMatrix(30, 4, 9, 22)
    # FNR preserved as a cross-multiplied integer identity: 9 * 26 == 6 * 39.
    assert after_m.c * (before_m.a + before_m.c) == before_m.c * (
        after_m.a + after_m.c
    )
    assert after_m.fnr == Fraction(6, 26)
    assert result.separation_after.disparity == result.separation_before.disparity
    assert result.independence_before.disparity == 0
    assert result.independence_after.disparity > 0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(6, "smallest plan z=13 (10 hired, 3 rejected), FNR identity exact", elapsed)


def test_criterion_7_swap_attack_suite():
    start = time.perf_counter()
    rng = random.Random(7077)
    scale = 1.0
    checked = 0
    for _ in range(200):
        ds, group = random_scored_dataset(rng)
        result = swap_attack(ds, group)
        before_g = tabulate(ds)
        after_g = tabulate(result.after)
        assert before_g.matrices == after_g.matrices
        for measure in MEASURES:
            before_v = evaluate_measure(before_g, measure)
            after_v = evaluate_measure(after_g, measure)
            assert before_v.holds == after_v.holds
            assert before_v.component_gaps == after_v.component_gaps
        if result.score_gap / scale < 1.0:
            report = lipschitz_violations(result.after, scale)
            pairs = {frozenset((a, b)) for a, b, _ in report.violations}
            assert frozenset(result.swapped_pair) in pairs
        checked += 1
    assert checked == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(7, "200/200 swaps left matrices and verdicts unchanged, pair flagged", elapsed)


def _random_defined_grouped(rng: random.Random) -> GroupedConfusion:
    """Random matrices whose five statistics are all defined."""
    groups = tuple(f"g{i}" for i in range(rng.randint(2, 3)))
    matrices = {}
    for group in groups:
        while True:
            m = [rng.randint(0, 30) for _ in range(4)]
            a, b, c, d = m
            if min(a + b, c + d, b + d, a + c) > 0:
                matrices[group] = ConfusionMatrix(a, b, c, d)
                break
    return GroupedConfusion(matrices)


def _tiny_in_huge_grouped(rng: random.Random) -> GroupedConfusion:
    """A group of a few records beside one of 10^7 to 10^9 times as many."""
    tiny = ConfusionMatrix(*(rng.randint(1, 3) for _ in range(4)))
    base = ConfusionMatrix(*(rng.randint(1, 3) for _ in range(4)))
    return GroupedConfusion({"tiny": tiny, "huge": base.scaled(rng.randint(10**7, 10**9))})


def _sparse_grouped(rng: random.Random) -> GroupedConfusion:
    """Random matrices with zero cells allowed, so rates can be undefined."""
    matrices = {}
    for i in range(rng.randint(2, 3)):
        cells = [0, 0, 0, 0]
        while sum(cells) == 0:
            cells = [rng.choice((0, 0, 1, 2)) for _ in range(4)]
        matrices[f"g{i}"] = ConfusionMatrix(*cells)
    return GroupedConfusion(matrices)


def test_criterion_8_path_equivalence():
    start = time.perf_counter()
    rng = random.Random(8088)
    tables = [_random_defined_grouped(rng) for _ in range(500)]
    tables += [_tiny_in_huge_grouped(rng) for _ in range(50)]
    tables += [_sparse_grouped(rng) for _ in range(100)]
    tables.append(
        GroupedConfusion(
            {"p": ConfusionMatrix(2, 1, 1, 2), "q": ConfusionMatrix(*(4 * [10**8]))}
        )
    )
    not_comparable = 0
    for g in tables:
        j = to_joint(g)
        for measure in MEASURES:
            for eps in (0.0, EPS_DEFAULT, 0.05):
                verdict = evaluate_measure(g, measure, eps)
                assert measure_via_distribution(j, measure, eps) == verdict, (g, measure)
            not_comparable += verdict.holds is None
    assert not_comparable > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(
        8,
        f"confusion and distribution routes gave equal verdicts on {len(tables)}/"
        f"{len(tables)} tables ({not_comparable} not comparable)",
        elapsed,
    )


def test_criterion_9_byte_identical_reports(tmp_path):
    start = time.perf_counter()
    before_csv = str(tmp_path / "before.csv")
    export_csv(synthesize_dataset(BEFORE), before_csv)
    scored_csv = str(tmp_path / "scored.csv")
    rng = random.Random(9099)
    ds, group = random_scored_dataset(rng)
    export_csv(ds, scored_csv)

    invocations = [
        ("audit", before_csv),
        ("audit", before_csv, "--format", "json"),
        ("audit", before_csv, "--find-break"),
        ("demo",),
        ("demo", "--format", "json"),
        ("attack", "reservoir", before_csv, "--group", "q", "--z-max", "13"),
        ("attack", "reservoir", before_csv, "--group", "q", "--z-max", "13",
         "--format", "json"),
        ("attack", "swap", scored_csv, "--group", group),
        ("attack", "swap", scored_csv, "--group", group, "--format", "json"),
        ("check-props", "--seed", "42", "--count", "25"),
        ("check-props", "--seed", "42", "--count", "25", "--format", "json"),
        ("counterexample", before_csv),
        ("counterexample", before_csv, "--format", "json"),
    ]
    for argv in invocations:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second, argv
        if "--format" in argv:
            json.loads(first[1])  # structured output parses

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(9, "all commands byte-identical across reruns", elapsed)
