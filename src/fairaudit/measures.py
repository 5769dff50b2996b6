"""The three group-fairness measures over grouped confusion matrices.

Each measure compares per-group rates across groups (independence: the
selection rate; sufficiency: PPV and NPV; separation: FPR and FNR), and
there are two routes to the rates:

* :func:`evaluate_measure` reads the cells off each group's confusion
  matrix, and
* :func:`measure_via_distribution` sums the same cells out of a joint of
  (A, Y, R), so each rate is the conditional probability it stands for, e.g.
  PPV = P(Y=+ | A=a, R=+), the (conditional) independence of the measure.

Both routes feed per-group cells ``(a, b, c, d)`` to one kernel,
:func:`cell_gaps`, which turns them into each rate's integer ``(part, whole)``
by ``confusion.RATES`` and compares rates by cross-multiplication. The verdict
builds one ``Fraction`` per component gap, so on the count joint of a table
the routes return equal verdicts for every eps; the break search asks the
kernel through :func:`cells_hold` and builds nothing. ``disparity`` is the
largest gap between two groups' values of one rate; the verdict holds when it
is within ``eps`` by ``distributions.within``. Any undefined constituent rate
(``whole`` is 0) makes the verdict NOT-COMPARABLE (``holds`` and
``disparity`` are ``None``), which is deliberately neither a pass nor a fail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap
from operator import itemgetter
from typing import Collection, Mapping, NamedTuple, Sequence

from .confusion import CELLS, LABEL, NEG, POS, RATES, GroupedConfusion
from .distributions import EPS_DEFAULT, FiniteJoint, within
from .errors import InputError, PreconditionError

INDEPENDENCE = "independence"
SUFFICIENCY = "sufficiency"
SEPARATION = "separation"
MEASURES = (INDEPENDENCE, SUFFICIENCY, SEPARATION)

#: Gap label -> the per-group rate it compares, for each measure.
_COMPONENTS = {
    INDEPENDENCE: {"selection_rate_gap": "selection_rate"},
    SUFFICIENCY: {"ppv_gap": "ppv", "npv_gap": "npv"},
    SEPARATION: {"fpr_gap": "fpr", "fnr_gap": "fnr"},
}


class MeasureVerdict(NamedTuple):
    """Result of evaluating one fairness measure; its fields are kept as given.

    ``disparity`` is the maximum over the component gaps, or ``None`` when the
    measure is NOT-COMPARABLE. ``witnesses`` names the group pair attaining
    the maximum gap.
    """

    measure: str
    disparity: Fraction | None
    component_gaps: Mapping[str, Fraction | None]
    holds: bool | None
    witnesses: tuple[str, str] | None
    eps: float = EPS_DEFAULT


def cell_gaps(
    measure: str, cells: Collection[Sequence[int]]
) -> dict[str, tuple[int, int, int, int] | None]:
    """Gap label -> ``(part, whole, i, j)``: the largest gap ``part / whole``
    between two groups' values of that rate over per-group cells
    ``(a, b, c, d)``, found as ``max - min`` in one pass by cross-multiplication,
    and the positions of the first pair attaining it; ``None`` when some
    group's rate is undefined. The first pair is the first group holding an
    extreme value with the first later group holding the other extreme, or
    positions 0 and 1 when all values are equal. Fewer than two groups are
    refused, after an unknown measure.
    """
    components = _components(measure)
    if len(cells) < 2:
        require_two_groups(tuple(cells))
    gaps: dict[str, tuple[int, int, int, int] | None] = {}
    for label, rate in components.items():
        rates = list(starmap(RATES[rate], cells))
        if 0 in map(itemgetter(1), rates):
            gaps[label] = None
            continue
        high = low = 0  # the first position holding the largest and the smallest rate
        for i, (part, whole) in enumerate(rates):
            if part * rates[high][1] > rates[high][0] * whole:
                high = i
            elif part * rates[low][1] < rates[low][0] * whole:
                low = i
        (hp, hw), (lp, lw) = rates[high], rates[low]
        gap = hp * lw - lp * hw
        gaps[label] = (gap, hw * lw, *sorted((high, low))) if gap else (0, 1, 0, 1)
    return gaps


def cells_hold(measure: str, cells: Collection[Sequence[int]], eps: float) -> bool | None:
    """The ``holds`` of ``measure``'s verdict on per-group cells, without
    building the verdict or a ``Fraction``."""
    gaps = cell_gaps(measure, cells).values()
    if None in gaps:
        return None
    return all(within(part, whole, eps) for part, whole, _, _ in gaps)


def require_two_groups(groups: Sequence) -> None:
    """Refuse fewer than two groups, named or given by their cells, as every
    check that compares groups does."""
    if len(groups) < 2:
        raise PreconditionError(f"fairness measures need at least two groups, got {groups}")


def _cell_verdict(
    measure: str, cells: Mapping[str, Sequence[int]], eps: float
) -> MeasureVerdict:
    """Evaluate a measure on per-group cells ``(a, b, c, d)``; both routes end here."""
    _components(measure)  # an unknown measure is refused before the group count
    groups = tuple(cells)
    require_two_groups(groups)  # naming the groups, where cell_gaps names their cells
    gaps_at = cell_gaps(measure, cells.values())
    gaps = {label: None if gap is None else Fraction(*gap[:2]) for label, gap in gaps_at.items()}
    if None in gaps.values():
        return MeasureVerdict(measure, None, gaps, None, None, eps)
    winner = max(gaps, key=gaps.__getitem__)  # first label with the largest gap
    part, whole, i, j = gaps_at[winner]
    holds = within(part, whole, eps)
    return MeasureVerdict(measure, gaps[winner], gaps, holds, (groups[i], groups[j]), eps)


def _components(measure: str) -> Mapping[str, str]:
    """Gap label -> rate name for ``measure``."""
    try:
        return _COMPONENTS[measure]
    except KeyError:
        raise InputError(f"unknown measure {measure!r}; expected one of {MEASURES}") from None


def evaluate_measure(
    g: GroupedConfusion, measure: str, eps: float = EPS_DEFAULT
) -> MeasureVerdict:
    """Evaluate a measure by comparing exact per-group rates."""
    return _cell_verdict(measure, g.matrices, eps)


def independence(g: GroupedConfusion, eps: float = EPS_DEFAULT) -> MeasureVerdict:
    """Equal selection rates (a+b)/N across groups."""
    return evaluate_measure(g, INDEPENDENCE, eps)


def sufficiency(g: GroupedConfusion, eps: float = EPS_DEFAULT) -> MeasureVerdict:
    """Equal PPV and equal NPV across groups."""
    return evaluate_measure(g, SUFFICIENCY, eps)


def separation(g: GroupedConfusion, eps: float = EPS_DEFAULT) -> MeasureVerdict:
    """Equal FPR and equal FNR across groups."""
    return evaluate_measure(g, SEPARATION, eps)


def measure_via_distribution(
    j: FiniteJoint, measure: str, eps: float = EPS_DEFAULT
) -> MeasureVerdict:
    """Evaluate a measure on a joint over exactly (A, Y, R), with Y and R
    over ``POS`` and ``NEG``.

    For every value a of A the rates are conditional probabilities: selection
    rate P(R=+ | A=a), PPV P(Y=+ | A=a, R=+), NPV P(Y=- | A=a, R=-), FPR
    P(R=+ | A=a, Y=-) and FNR P(R=- | A=a, Y=+). Each is an exact ratio of
    cell weights, undefined when its conditioning weight is 0. On
    ``to_joint(g)`` the verdict equals ``evaluate_measure(g, ...)``. No command
    runs it; it stays for acceptance criterion 8 and the README's two routes.
    """
    if set(j.names) != {"A", "Y", "R"}:
        raise InputError(f"joint must have variables A, Y, R; got {j.names}")
    if not set(j.domain("Y")) == set(j.domain("R")) == {POS, NEG}:
        raise InputError(f"Y and R must be binary over {POS!r} and {NEG!r}")
    slot = {(LABEL[y], LABEL[r]): i for i, (y, r) in enumerate(CELLS)}
    a_at, y_at, r_at = map(j.index, ("A", "Y", "R"))
    cells = {a: [0, 0, 0, 0] for a in j.domain("A")}  # tp, fp, fn, tn
    for key, weight in j.table.items():
        cells[key[a_at]][slot[key[y_at], key[r_at]]] += weight
    return _cell_verdict(measure, cells, eps)
