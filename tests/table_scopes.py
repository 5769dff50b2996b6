"""Every grouped table of a small scope, checked against two claims about the
three measures.

A scope is every table of ``groups`` groups whose cells a, b, c, d each run
over ``0..top``, each matrix holding at least one record. No measure depends
on the order of the groups, so the groups of a table are a sorted multiset of
matrices, named g0, g1, ... in that order. The scopes:

    scope                                 tables
    two groups, cells 0..2                 3,240   REDUCED
    three groups, cells 0..1                 680   REDUCED
    two groups, cells 0..3                32,640   FULL
    three groups, cells 0..2              88,560   FULL

The claims, on every table of a scope:

* Each measure is its CI statement (Barocas, Hardt & Narayanan, *Fairness and
  Machine Learning*, ch. 3): independence is R _|_ A, separation R _|_ A | Y
  and sufficiency Y _|_ A | R. At eps 0 a verdict that is not NOT-COMPARABLE
  holds exactly when ``ci_deviation(to_joint(g), ...)`` of its statement is 0.
  The verdict comes from ``measures.cell_gaps`` and the deviation from
  ``distributions._ci_pair``, two kernels that share no code.
* Y<->R duality: swapping b and c in every matrix exchanges Y and R, so PPV
  becomes 1 - FNR and NPV becomes 1 - FPR. Sufficiency of the transposed table
  has separation's ``holds``, ``disparity`` and gaps (``ppv_gap`` is
  ``fnr_gap``, ``npv_gap`` is ``fpr_gap``) at each eps of ``DUALITY_EPS``, and
  its ``witnesses`` wherever the two gaps differ. Where they tie, each
  measure's label order picks the first of its own gaps, which are not the
  matching pair. Transposing maps each scope onto itself, so one direction
  covers both.

Run as a script from the repository root, the module checks both claims on
``FULL`` (about 22 s on a 2-vCPU Xeon), prints one tally per claim and exits 1
on any mismatch:

    PYTHONPATH=src python tests/table_scopes.py

Tier-1 checks ``REDUCED`` (``test_table_scopes.py``).
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

from fairaudit.confusion import ConfusionMatrix, GroupedConfusion, to_joint
from fairaudit.distributions import ci_deviation
from fairaudit.measures import (
    INDEPENDENCE,
    SEPARATION,
    SUFFICIENCY,
    evaluate_measure,
    separation,
    sufficiency,
)


class Scope(NamedTuple):
    groups: int  # the groups of each table
    top: int  # the largest count of a cell

    @property
    def size(self) -> int:
        """The tables: multisets of ``groups`` nonempty matrices."""
        return math.comb((self.top + 1) ** 4 - 1 + self.groups - 1, self.groups)


REDUCED = (Scope(2, 2), Scope(3, 1))
FULL = (Scope(2, 3), Scope(3, 2))

#: Each measure's CI statement as the sides of ``ci_deviation``.
STATEMENTS = {
    INDEPENDENCE: ("R", "A"),
    SEPARATION: ("R", "A", "Y"),
    SUFFICIENCY: ("Y", "A", "R"),
}

#: Each gap of sufficiency on the transposed table, and separation's gap it equals.
DUAL_GAPS = {"ppv_gap": "fnr_gap", "npv_gap": "fpr_gap"}

DUALITY_EPS = (0.0, 1e-9, 0.05)


def tables(scope: Scope) -> Iterator[GroupedConfusion]:
    """Every table of ``scope``, its matrices in sorted order."""
    cells = itertools.product(range(scope.top + 1), repeat=4)
    matrices = [ConfusionMatrix(*m) for m in cells if any(m)]
    for chosen in itertools.combinations_with_replacement(matrices, scope.groups):
        yield GroupedConfusion({f"g{i}": m for i, m in enumerate(chosen)})


def transposed(g: GroupedConfusion) -> GroupedConfusion:
    """``g`` with b and c swapped in every matrix: Y and R exchanged."""
    return GroupedConfusion(
        {group: ConfusionMatrix(m.a, m.c, m.b, m.d) for group, m in g.matrices.items()}
    )


def ci_statement_tally(scopes: Sequence[Scope]) -> Counter:
    """Over every table of ``scopes`` and every measure comparable at eps 0:
    the pairs ``comparable``, those whose verdict ``holds``, and the
    ``mismatches`` with the measure's CI statement."""
    tally: Counter = Counter()
    for scope in scopes:
        for g in tables(scope):
            j = to_joint(g)
            for measure, statement in STATEMENTS.items():
                holds = evaluate_measure(g, measure, 0.0).holds
                if holds is not None:
                    tally["comparable"] += 1
                    tally["holds"] += holds
                    tally["mismatches"] += holds != (ci_deviation(j, *statement) == 0)
    return tally


def duality_tally(scopes: Sequence[Scope]) -> Counter:
    """Over every table of ``scopes`` and each eps of ``DUALITY_EPS``: the
    ``comparisons`` of sufficiency on the transposed table with separation and
    their ``failures``; over the tables, the ``ties``, whose two separation
    gaps are defined and equal, and ``other_witnesses``, the tables where the
    two measures name different witnesses, each of them a tie."""
    tally: Counter = Counter()
    for scope in scopes:
        for g in tables(scope):
            swapped = transposed(g)
            for eps in DUALITY_EPS:
                suff, sep = sufficiency(swapped, eps), separation(g, eps)
                gaps = sep.component_gaps
                tie = gaps["fpr_gap"] is not None and gaps["fpr_gap"] == gaps["fnr_gap"]
                matched = (suff.holds, suff.disparity) == (sep.holds, sep.disparity) and all(
                    suff.component_gaps[mine] == gaps[theirs] for mine, theirs in DUAL_GAPS.items()
                )
                tally["comparisons"] += 1
                tally["failures"] += not matched or not (tie or suff.witnesses == sep.witnesses)
            # Gaps and witnesses do not depend on eps: the last verdicts stand for all.
            tally["ties"] += tie
            tally["other_witnesses"] += suff.witnesses != sep.witnesses
    return tally


def main() -> int:
    tables_total = sum(scope.size for scope in FULL)
    ci = ci_statement_tally(FULL)
    print(
        f"CI statements: {tables_total:,} tables, {ci['comparable']:,} comparable "
        f"measures at eps 0, {ci['holds']:,} hold, {ci['mismatches']:,} mismatches"
    )
    dual = duality_tally(FULL)
    print(
        f"Y<->R duality: {dual['comparisons']:,} comparisons at eps "
        f"{', '.join(map(str, DUALITY_EPS))}, {dual['failures']:,} failures; "
        f"{dual['ties']:,} tables tie, {dual['other_witnesses']:,} of them with other witnesses"
    )
    failed = ci["mismatches"] or dual["failures"]
    return 1 if failed or dual["comparisons"] != len(DUALITY_EPS) * tables_total else 0


if __name__ == "__main__":
    sys.exit(main())
