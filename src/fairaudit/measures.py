"""The three group-fairness measures over grouped confusion matrices.

Each measure compares per-group rates across groups (independence: the
selection rate; sufficiency: PPV and NPV; separation: FPR and FNR), and
there are two routes to the rates:

* :func:`evaluate_measure` reads the exact rates off each group's confusion
  matrix, and
* :func:`measure_via_distribution` computes the same rates as conditional
  probabilities on a joint of (A, Y, R), e.g. PPV = P(Y=+ | A=a, R=+), the
  (conditional) independence each measure stands for.

Both routes feed one verdict builder, so on the count joint of a table they
return equal verdicts for every eps. ``disparity`` is the largest gap between
two groups' values of one rate; the verdict holds when it is within ``eps``.
Any undefined constituent rate makes the verdict NOT-COMPARABLE (``holds``
and ``disparity`` are ``None``), which is deliberately neither a pass nor a
fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .confusion import CELLS, LABEL, NEG, POS, GroupedConfusion
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


@dataclass(frozen=True)
class MeasureVerdict:
    """Result of evaluating one fairness measure.

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "component_gaps", dict(self.component_gaps))

    @property
    def comparable(self) -> bool:
        return self.holds is not None


def _max_pairwise_gap(
    values: Mapping[str, Fraction],
) -> tuple[Fraction, tuple[str, str]]:
    """Largest |difference| over group pairs, ``max - min``, in one pass.

    The witness is the first maximizing pair in group-pair order: the first
    group holding an extreme value with the first later group holding the
    other extreme, or the first two groups when all values are equal.
    """
    groups = list(values)
    high, low = max(values.values()), min(values.values())
    if high == low:
        return high - low, (groups[0], groups[1])
    first = next(i for i, group in enumerate(groups) if values[group] in (high, low))
    other = low if values[groups[first]] == high else high
    second = next(group for group in groups[first + 1 :] if values[group] == other)
    return high - low, (groups[first], second)


def _rate_verdict(
    measure: str,
    rates: Mapping[str, Mapping[str, Fraction | None]],
    eps: float,
) -> MeasureVerdict:
    """Evaluate a measure from per-group rates keyed by gap label, e.g.
    ``{"ppv_gap": {"p": Fraction(5, 6), "q": Fraction(5, 6)}, ...}``.

    Both routes end here, so they agree whenever they feed it equal rates.
    """
    groups = tuple(next(iter(rates.values())))
    if len(groups) < 2:
        raise PreconditionError(f"fairness measures need at least two groups, got {groups}")
    gaps: dict[str, Fraction | None] = {}
    witnesses: dict[str, tuple[str, str]] = {}
    for label, per_group in rates.items():
        if any(rate is None for rate in per_group.values()):
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
        label: {group: getattr(m, rate) for group, m in g.matrices.items()}
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
    components = _components(measure)

    def weight(a: str, y: str, r: str) -> int:
        values = {"A": a, "Y": y, "R": r}
        return j.table.get(tuple(values[name] for name in j.names), 0)

    def conditional(part: int, whole: int) -> Fraction | None:
        return Fraction(part, whole) if whole else None

    rates: dict[str, dict[str, Fraction | None]] = {label: {} for label in components}
    for a in j.domain("A"):
        tp, fp, fn, tn = (weight(a, LABEL[y], LABEL[r]) for y, r in CELLS)
        group_rates = {
            "selection_rate": conditional(tp + fp, tp + fp + fn + tn),
            "ppv": conditional(tp, tp + fp),
            "npv": conditional(tn, fn + tn),
            "fpr": conditional(fp, fp + tn),
            "fnr": conditional(fn, tp + fn),
        }
        for label, rate in components.items():
            rates[label][a] = group_rates[rate]
    return _rate_verdict(measure, rates, eps)
