"""The three group-fairness measures over grouped confusion matrices.

Each measure compares per-group rates across groups (independence: the
selection rate; sufficiency: PPV and NPV; separation: FPR and FNR), read off
each group's confusion matrix. One kernel, :func:`cell_gaps`, turns per-group
cells ``(a, b, c, d)`` into each rate's integer ``(part, whole)`` by
``confusion.RATES`` and compares rates by cross-multiplication, so no rate
passes through a float. The verdict builds one ``Fraction`` per component
gap; the break search asks the kernel through :func:`cells_hold` and builds
nothing. ``disparity`` is the largest gap between two groups' values of one
rate; the verdict holds when it is within ``eps`` by
``distributions.within``. Any undefined constituent rate (``whole`` is 0)
makes the verdict NOT-COMPARABLE (``holds`` and ``disparity`` are ``None``),
which is deliberately neither a pass nor a fail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap
from operator import itemgetter
from typing import Collection, Mapping, NamedTuple, Sequence

from .confusion import RATES, GroupedConfusion
from .distributions import EPS_DEFAULT, within
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
    _components(measure)  # an unknown measure is refused before the group count
    groups = g.groups
    require_two_groups(groups)  # naming the groups, where cell_gaps names their cells
    gaps_at = cell_gaps(measure, g.matrices.values())
    gaps = {label: None if gap is None else Fraction(*gap[:2]) for label, gap in gaps_at.items()}
    if None in gaps.values():
        return MeasureVerdict(measure, None, gaps, None, None, eps)
    winner = max(gaps, key=gaps.__getitem__)  # first label with the largest gap
    part, whole, i, j = gaps_at[winner]
    holds = within(part, whole, eps)
    return MeasureVerdict(measure, gaps[winner], gaps, holds, (groups[i], groups[j]), eps)


def independence(g: GroupedConfusion, eps: float = EPS_DEFAULT) -> MeasureVerdict:
    """Equal selection rates (a+b)/N across groups."""
    return evaluate_measure(g, INDEPENDENCE, eps)


def sufficiency(g: GroupedConfusion, eps: float = EPS_DEFAULT) -> MeasureVerdict:
    """Equal PPV and equal NPV across groups."""
    return evaluate_measure(g, SUFFICIENCY, eps)


def separation(g: GroupedConfusion, eps: float = EPS_DEFAULT) -> MeasureVerdict:
    """Equal FPR and equal FNR across groups."""
    return evaluate_measure(g, SEPARATION, eps)

