"""The three group-fairness measures over grouped confusion matrices.

Each measure compares per-group rates across groups (independence: the
selection rate; sufficiency: PPV and NPV; separation: FPR and FNR), and
there are two routes to the rates:

* :func:`evaluate_measure` reads the cells off each group's confusion
  matrix, and
* :func:`measure_via_distribution` sums the same cells out of a joint of
  (A, Y, R), so each rate is the conditional probability it stands for, e.g.
  PPV = P(Y=+ | A=a, R=+), the (conditional) independence of the measure.

Both routes turn cells into each rate's integer ``(part, whole)`` by
``confusion.RATES`` and feed one verdict builder, which compares rates by
cross-multiplication and builds one ``Fraction`` per component gap, so on the
count joint of a table they return equal verdicts for every eps.
``disparity`` is the largest gap between two groups' values of one rate; the
verdict holds when it is within ``eps``. Any undefined constituent rate
(``whole`` is 0) makes the verdict NOT-COMPARABLE (``holds`` and
``disparity`` are ``None``), which is deliberately neither a pass nor a fail.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Mapping

from .confusion import CELLS, LABEL, NEG, POS, RATES, GroupedConfusion
from .distributions import EPS_DEFAULT, FiniteJoint
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


class MeasureVerdict(
    namedtuple("MeasureVerdict", "measure disparity component_gaps holds witnesses eps")
):
    """Result of evaluating one fairness measure.

    ``disparity`` is the maximum over the component gaps, or ``None`` when the
    measure is NOT-COMPARABLE. ``witnesses`` names the group pair attaining
    the maximum gap.
    """

    __slots__ = ()

    def __new__(
        cls, measure: str, disparity: Fraction | None,
        component_gaps: Mapping[str, Fraction | None], holds: bool | None,
        witnesses: tuple[str, str] | None, eps: float = EPS_DEFAULT,
    ) -> MeasureVerdict:
        return super().__new__(cls, measure, disparity, dict(component_gaps), holds, witnesses, eps)

    @property
    def comparable(self) -> bool:
        return self.holds is not None


def _max_pairwise_gap(rates: Mapping[str, tuple[int, int]]) -> tuple[Fraction, tuple[str, str]]:
    """Largest |difference| over group pairs, ``max - min``, in one pass over
    rates given as ``(part, whole)`` with ``whole > 0``, compared by
    cross-multiplication.

    The witness is the first maximizing pair in group-pair order: the first
    group holding an extreme value with the first later group holding the
    other extreme, or the first two groups when all values are equal.
    """
    groups, pairs = list(rates), list(rates.values())
    high = low = 0  # the first group holding the largest and the smallest rate
    for i, (part, whole) in enumerate(pairs):
        if part * pairs[high][1] > pairs[high][0] * whole:
            high = i
        elif part * pairs[low][1] < pairs[low][0] * whole:
            low = i
    (hp, hw), (lp, lw) = pairs[high], pairs[low]
    gap = Fraction(hp * lw - lp * hw, hw * lw)
    if not gap:
        return gap, (groups[0], groups[1])
    return gap, (groups[min(high, low)], groups[max(high, low)])


def _rate_verdict(
    measure: str,
    rates: Mapping[str, Mapping[str, tuple[int, int]]],
    eps: float,
) -> MeasureVerdict:
    """Evaluate a measure from per-group rates as ``(part, whole)`` keyed by
    gap label, e.g. ``{"ppv_gap": {"p": (5, 6), "q": (10, 12)}, ...}``.

    Both routes end here, so they agree whenever they feed it equal rates.
    """
    groups = tuple(next(iter(rates.values())))
    if len(groups) < 2:
        raise PreconditionError(f"fairness measures need at least two groups, got {groups}")
    gaps: dict[str, Fraction | None] = {}
    witnesses: dict[str, tuple[str, str]] = {}
    for label, per_group in rates.items():
        if any(whole == 0 for _, whole in per_group.values()):
            gaps[label] = None
            continue
        gaps[label], witnesses[label] = _max_pairwise_gap(per_group)
    if any(gap is None for gap in gaps.values()):
        return MeasureVerdict(measure, None, gaps, None, None, eps)
    winner = max(gaps, key=gaps.__getitem__)  # first label with the largest gap
    disparity = gaps[winner]
    return MeasureVerdict(measure, disparity, gaps, disparity <= eps, witnesses[winner], eps)


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
    rates = {
        label: {group: RATES[rate](*m) for group, m in g.matrices.items()}
        for label, rate in _components(measure).items()
    }
    return _rate_verdict(measure, rates, eps)


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
    ``to_joint(g)`` the verdict equals ``evaluate_measure(g, ...)``.
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
    rates = {
        label: {a: RATES[rate](*counts) for a, counts in cells.items()}
        for label, rate in _components(measure).items()
    }
    return _rate_verdict(measure, rates, eps)
