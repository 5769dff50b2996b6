"""Re-derive a printed audit from its matrices, and check a printed property
run's counts, importing nothing from fairaudit.

The checker reads one ``fairaudit audit --format json`` or ``fairaudit
check-props --format json`` output. For an audit, each rate is
the textbook ratio of a group's cells a=TP, b=FP, c=FN, d=TN, as an exact
``Fraction``, and from the printed matrices alone the checker re-derives:

* the total and each group's size;
* every group stat, as exact fraction and float;
* each measure's component gaps and disparity, and its ``status`` and
  ``holds`` at the printed eps, taken at its exact binary value;
* ``all_hold`` and ``perfect_check``;
* on a table whose cells are all positive, the deviation of A from the
  (Y, R) pair, ``max |N·n(a,y,r) − n(a)·n(y,r)| / N²``, and its three flags.

The JSON keys are sorted, so the printed groups have lost their input order
and with it the witnesses' order. The checker asserts that the two witnesses
are two printed groups whose rates on the winning component differ by exactly
the disparity; the winning component is the first largest gap in the
measure's own order (ppv before npv, fpr before fnr). :func:`verdict` is
given the groups in input order and derives the witnesses too.

For a property run, :func:`check_props` checks that each of the eight
suites ran ``count`` instances and failed on at most that many, that each of
the five CI suites splits them into vacuous and non-vacuous ones, and that
``failures_total`` is the sum of the suites' failures.

An audit implies exit code 0 when all three measures hold and 1 otherwise,
and a property run 0 when ``failures_total`` is 0 and 1 otherwise. Given a
saved output and the exit code the CLI gave it, the script exits 0 when the
output checks and implies that code, and 1 otherwise:

    python tests/output_checker.py OUTPUT.json EXIT_CODE
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

#: Each rate as ``(part, whole)`` of the cells a, b, c, d; undefined at whole 0.
RATES = {
    "selection_rate": lambda a, b, c, d: (a + b, a + b + c + d),
    "accuracy": lambda a, b, c, d: (a + d, a + b + c + d),
    "ppv": lambda a, b, c, d: (a, a + b),
    "npv": lambda a, b, c, d: (d, c + d),
    "fpr": lambda a, b, c, d: (b, b + d),
    "fnr": lambda a, b, c, d: (c, a + c),
}

#: The rates printed as each group's stats.
STATS = ("accuracy", "ppv", "npv", "fpr", "fnr")

#: Each measure's gaps, in the order in which the first largest one wins.
COMPONENTS = {
    "independence": {"selection_rate_gap": "selection_rate"},
    "sufficiency": {"ppv_gap": "ppv", "npv_gap": "npv"},
    "separation": {"fpr_gap": "fpr", "fnr_gap": "fnr"},
}

#: The keys of every audit output; ``--find-break`` adds ``break_search``.
AUDIT_KEYS = {
    "all_hold", "conservativeness", "eps", "group_stats", "input", "matrices", "measures", "tool"
}

#: The keys of every check-props output.
PROPS_KEYS = {
    "ci_properties", "count", "eps", "failures_total", "joint_independence",
    "perfect_predictor", "seed", "tool",
}

#: The five CI-property suites and the two joint-independence suites, by key.
CI_SUITES = ("1", "2", "3", "4", "5")
JOINT_SUITES = ("proportional", "nonproportional")


class Mismatch(AssertionError):
    """A printed value that the printed matrices do not imply."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def rate(name: str, cells: tuple[int, ...]) -> Fraction | None:
    part, whole = RATES[name](*cells)
    return Fraction(part, whole) if whole else None


def exact(x: Fraction | None) -> dict | None:
    """A rate as the output prints it."""
    return None if x is None else {"exact": str(x), "value": float(x)}


def gaps(measure: str, matrices: dict[str, tuple[int, ...]]) -> dict:
    """Gap label -> ``(gap, witnesses)`` over the groups in ``matrices`` order,
    or ``None`` when a group's rate is undefined. The witnesses are the first
    group holding an extreme rate with the first later one holding the other."""
    groups = list(matrices)
    out: dict = {}
    for label, name in COMPONENTS[measure].items():
        rates = [rate(name, matrices[group]) for group in groups]
        if None in rates:
            out[label] = None
            continue
        high, low = max(rates), min(rates)
        first = next(i for i, r in enumerate(rates) if r in (high, low))
        other = low if rates[first] == high else high
        second = next(j for j in range(first + 1, len(rates)) if rates[j] == other)
        out[label] = (high - low, [groups[first], groups[second]])
    return out


def verdict(measure: str, matrices: dict[str, tuple[int, ...]], eps: float) -> dict:
    """The JSON object of ``measure``'s verdict on ``matrices`` at ``eps``."""
    found = gaps(measure, matrices)
    if None in found.values():
        disparity = holds = witnesses = None
    else:
        disparity, witnesses = max(found.values(), key=lambda gap: gap[0])
        holds = disparity <= Fraction(eps)
    return {
        "component_gaps": {
            label: None if gap is None else exact(gap[0]) for label, gap in found.items()
        },
        "disparity": exact(disparity),
        "eps": eps,
        "holds": holds,
        "measure": measure,
        "status": "not-comparable" if holds is None else "holds" if holds else "fails",
        "witnesses": witnesses,
    }


def joint_deviation(matrices: dict[str, tuple[int, ...]]) -> Fraction:
    """``max |N·n(a,y,r) − n(a)·n(y,r)| / N²`` over groups a and cells (y, r)."""
    total = sum(map(sum, matrices.values()))
    cell_totals = [sum(column) for column in zip(*matrices.values())]
    top = max(
        abs(total * count - sum(cells) * cell_total)
        for cells in matrices.values()
        for count, cell_total in zip(cells, cell_totals)
    )
    return Fraction(top, total * total)


def check_witnesses(measure: str, printed: dict, matrices: dict[str, tuple[int, ...]]) -> None:
    """Two printed groups whose rates on the winning component differ by the disparity."""
    printed_gaps = printed["component_gaps"]
    found = {label: Fraction(printed_gaps[label]["exact"]) for label in COMPONENTS[measure]}
    winner = max(found, key=found.__getitem__)
    pair = printed["witnesses"]
    expect(isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1], measure)
    expect(pair[0] in matrices and pair[1] in matrices, measure)
    name = COMPONENTS[measure][winner]
    spread = abs(rate(name, matrices[pair[0]]) - rate(name, matrices[pair[1]]))
    expect(spread == found[winner], f"{measure} witnesses")


def check_audit(out: dict) -> int:
    """Check one parsed audit output against its matrices; the exit code it implies."""
    expect(set(out) - {"break_search"} == AUDIT_KEYS, "keys")
    eps = out["eps"]
    matrices = {group: (m["a"], m["b"], m["c"], m["d"]) for group, m in out["matrices"].items()}
    sizes = {group: sum(cells) for group, cells in matrices.items()}
    expect(out["input"]["group_sizes"] == sizes, "group_sizes")
    expect(out["input"]["total_records"] == sum(sizes.values()), "total_records")
    expect(not set(out["input"]["empty_groups"]) & set(matrices), "empty_groups")
    stats = {
        group: {name: exact(rate(name, cells)) for name in STATS}
        for group, cells in matrices.items()
    }
    expect(out["group_stats"] == stats, "group_stats")
    measures = out["measures"]
    expect(set(measures) == set(COMPONENTS), "measures")
    for measure, printed in measures.items():
        derived = verdict(measure, matrices, eps)
        expect({**printed, "witnesses": None} == {**derived, "witnesses": None}, measure)
        if derived["holds"] is None:
            expect(printed["witnesses"] is None, f"{measure} witnesses")
        else:
            check_witnesses(measure, printed, matrices)
    holds = {measure: printed["holds"] for measure, printed in measures.items()}
    all_hold = all(h is True for h in holds.values())
    expect(out["all_hold"] is all_hold, "all_hold")

    conservativeness = out["conservativeness"]
    perfect = all(b == 0 and c == 0 for _, b, c, _ in matrices.values())
    expect(conservativeness["perfect_predictor"] is perfect, "perfect_predictor")
    perfect_check = None
    if perfect:  # a NOT-COMPARABLE measure counts as holding: no gap exists
        kept = holds["sufficiency"] is not False and holds["separation"] is not False
        perfect_check = {"holds": kept, **measures}
    expect(conservativeness["perfect_check"] == perfect_check, "perfect_check")
    joint = None
    if all(min(cells) > 0 for cells in matrices.values()):
        deviation = joint_deviation(matrices)
        suff_and_sep = holds["sufficiency"] is True and holds["separation"] is True
        independent = deviation <= Fraction(eps)
        joint = {
            "ci_deviation": exact(deviation),
            "equivalent": suff_and_sep == independent,
            "joint_independent": independent,
            "suff_and_sep": suff_and_sep,
        }
    expect(conservativeness["joint_independence"] == joint, "joint_independence")
    return 0 if all_hold else 1


def check_props(out: dict) -> int:
    """Check one parsed check-props output's counts; the exit code it implies."""
    expect(set(out) == PROPS_KEYS, "keys")
    ci, joint = out["ci_properties"], out["joint_independence"]
    expect(sorted(ci) == sorted(CI_SUITES), "ci_properties")
    expect(sorted(joint) == sorted(JOINT_SUITES), "joint_independence")
    suites = {
        **{f"ci_properties {k}": ci[k] for k in CI_SUITES},
        "perfect_predictor": out["perfect_predictor"],
        **{f"joint_independence {k}": joint[k] for k in JOINT_SUITES},
    }
    for name, suite in suites.items():
        expect(suite["instances"] == out["count"], f"{name} instances")
        expect(0 <= suite["failures"] <= suite["instances"], f"{name} failures")
    for k in CI_SUITES:
        vacuous, non_vacuous = ci[k]["vacuous"], ci[k]["non_vacuous"]
        split = min(vacuous, non_vacuous) >= 0 and vacuous + non_vacuous == ci[k]["instances"]
        expect(split, f"ci_properties {k} vacuous")
    total = sum(suite["failures"] for suite in suites.values())
    expect(out["failures_total"] == total, "failures_total")
    return 0 if total == 0 else 1


def main(argv: list[str]) -> int:
    path, code = argv
    with open(path, encoding="utf-8") as f:
        out = json.load(f)
    props = "ci_properties" in out
    try:
        implied = check_props(out) if props else check_audit(out)
    except Mismatch as exc:
        print(f"{path}: printed {exc} differs from what the output implies", file=sys.stderr)
        return 1
    checked = "8 suites" if props else f"{len(out['matrices'])} groups"
    print(f"{path}: {checked} check, implying exit code {implied}; got {code}")
    return 0 if implied == int(code) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
