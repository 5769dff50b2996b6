"""Gerrymandering attacks and the individual-fairness violation detector.

Two constructions show how group-fairness verdicts can be held fixed while
individuals are treated unfairly:

* the reservoir attack hires hidden qualified candidates of one group,
  splitting the reservoir so the group's FNR is preserved as an exact
  integer identity (separation survives; independence breaks), and
* the swap attack exchanges the predictions of a lower-scored false negative
  and a higher-scored true positive inside one group, leaving every confusion
  matrix cell unchanged.

Both are exposed by the Lipschitz check: a prediction metric D bounded by a
scaled score metric d, with every violating pair reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

from .confusion import ConfusionMatrix, Dataset, GroupedConfusion
from .distributions import EPS_DEFAULT
from .errors import Infeasible, InputError, PreconditionError
from .measures import MeasureVerdict, independence, separation


@dataclass(frozen=True)
class ReservoirPlan:
    """Split of a reservoir of ``z`` qualified candidates into ``z_plus``
    hired and ``z_minus`` rejected, sized so the target group's TP:FN ratio
    is exactly preserved."""

    z: int
    z_plus: int
    z_minus: int

    def __post_init__(self) -> None:
        if self.z_plus < 0 or self.z_minus < 0:
            raise InputError("reservoir split must be nonnegative")
        if self.z != self.z_plus + self.z_minus:
            raise InputError("z must equal z_plus + z_minus")


@dataclass(frozen=True)
class ReservoirAttackResult:
    target_group: str
    plan: ReservoirPlan
    before: GroupedConfusion
    after: GroupedConfusion
    separation_before: MeasureVerdict
    separation_after: MeasureVerdict
    independence_before: MeasureVerdict
    independence_after: MeasureVerdict
    attack: str = field(default="reservoir", init=False)


@dataclass(frozen=True)
class SwapAttackResult:
    swapped_pair: tuple[str, str]
    score_gap: float
    after: Dataset


def violates(distance: float) -> bool:
    """Whether a pair with different predictions (D = 1) violates D <= d."""
    return 1.0 > distance


@dataclass(frozen=True)
class LipschitzReport:
    #: ``(id_a, id_b, individual_distance)`` rows with ``id_a < id_b``; each
    #: pair's prediction distance is 1, its margin ``1.0 - individual_distance``.
    violations: tuple[tuple[str, str, float], ...]
    skipped: tuple[str, ...]


# ---------------------------------------------------------------------------
# Reservoir attack
# ---------------------------------------------------------------------------


def reservoir_attack(
    g: GroupedConfusion, target: str, z_max: int, eps: float = EPS_DEFAULT
) -> ReservoirAttackResult:
    """Hire from a hidden reservoir of the target group without disturbing
    separation.

    Finds the smallest z <= z_max admitting an integer split
    z_plus = a * z / (a + c); the target matrix becomes
    (a + z_plus, b, c + z_minus, d), which preserves the group's FNR as an
    exact cross-multiplied identity and leaves other groups untouched. The
    group's selection rate rises whenever z_plus > 0, so an independence
    verdict that held exactly before fails afterwards.
    """
    m = g[target]
    positives = m.a + m.c
    if positives == 0:
        raise PreconditionError(f"target group {target!r} has no positive-label records")
    sep_before = separation(g, eps)
    if sep_before.holds is not True:
        raise PreconditionError("separation must hold before the reservoir attack")
    divisor = positives // math.gcd(m.a, positives)
    if divisor > z_max:
        raise Infeasible(
            f"z_plus = a*z/(a+c) = {m.a}*z/{positives} is integral only when z is a "
            f"multiple of {divisor}, which exceeds z_max={z_max}"
        )
    z = divisor
    z_plus = m.a * z // positives
    plan = ReservoirPlan(z=z, z_plus=z_plus, z_minus=z - z_plus)
    after = g.replace(
        target, ConfusionMatrix(m.a + plan.z_plus, m.b, m.c + plan.z_minus, m.d)
    )
    return ReservoirAttackResult(
        target_group=target,
        plan=plan,
        before=g,
        after=after,
        separation_before=sep_before,
        separation_after=separation(after, eps),
        independence_before=independence(g, eps),
        independence_after=independence(after, eps),
    )


# ---------------------------------------------------------------------------
# Swap attack
# ---------------------------------------------------------------------------


def swap_attack(ds: Dataset, group: str) -> SwapAttackResult:
    """Exchange the predictions of a false negative and a better-scored true
    positive in one group.

    Confusion matrices are unchanged cell for cell, so every group-fairness
    verdict is unchanged, yet the swapped pair violates the Lipschitz
    condition whenever its scaled score gap is below 1. The attacked pair is
    the lowest-scored false negative and the highest-scored true positive,
    each tie broken by the smaller id, so it has the largest score gap.
    """
    members = [rec for rec in ds.records if rec.group == group]
    if not members:
        raise InputError(f"group {group!r} has no records")
    unscored = [rec.id for rec in members if rec.score is None]
    if unscored:
        raise PreconditionError(
            f"group {group!r} has unscored records: {sorted(unscored)}"
        )
    false_negatives = [(float(rec.score), rec.id) for rec in members if rec.y and not rec.r]
    true_positives = [(-float(rec.score), rec.id) for rec in members if rec.y and rec.r]
    fn_score, x_id = min(false_negatives, default=(math.inf, None))
    neg_tp_score, star_id = min(true_positives, default=(math.inf, None))
    tp_score = -neg_tp_score
    if tp_score <= fn_score:
        raise Infeasible(
            f"group {group!r} has no false negative with a higher-scored true positive"
        )
    after = ds.with_predictions({x_id: True, star_id: False})
    return SwapAttackResult(
        swapped_pair=(x_id, star_id),
        score_gap=tp_score - fn_score,
        after=after,
    )


# ---------------------------------------------------------------------------
# Individual fairness
# ---------------------------------------------------------------------------


def lipschitz_violations(ds: Dataset, scale: float = 1.0) -> LipschitzReport:
    """Find all pairs violating D(prediction) <= d(individuals).

    d(x, y) is the absolute score difference divided by ``scale``, a finite
    number > 0 (NaN would flag no pair, inf every pair); D is the
    discrete metric on binary predictions (0 when equal, 1 otherwise), so
    only pairs with different predictions are scanned. Records without
    scores are skipped and reported. Violations are ``(id_a, id_b, d)`` rows
    with the smaller id first, sorted by descending margin ``1.0 - d``, then
    by id pair.
    """
    if not (isinstance(scale, Real) and math.isfinite(scale) and scale > 0):
        raise InputError(f"scale must be a finite number > 0, got {scale!r}")
    scored = [rec for rec in ds.records if rec.score is not None]
    skipped = tuple(sorted(rec.id for rec in ds.records if rec.score is None))
    positives = [(rec.id, float(rec.score)) for rec in scored if rec.r]
    negatives = [(rec.id, float(rec.score)) for rec in scored if not rec.r]
    found = []
    for pid, pscore in positives:
        for nid, nscore in negatives:
            d = abs(pscore - nscore) / scale
            if violates(d):
                id_a, id_b = (pid, nid) if pid < nid else (nid, pid)
                found.append((-(1.0 - d), id_a, id_b, d))
    found.sort()
    return LipschitzReport(tuple([(a, b, d) for _, a, b, d in found]), skipped)
