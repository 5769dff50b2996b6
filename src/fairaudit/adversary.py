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
from bisect import bisect_left, bisect_right
from collections import namedtuple
from numbers import Real
from typing import NamedTuple

from .confusion import ConfusionMatrix, Dataset, GroupedConfusion
from .distributions import EPS_DEFAULT
from .errors import Infeasible, InputError, PreconditionError
from .measures import MeasureVerdict, independence, separation


class ReservoirPlan(namedtuple("ReservoirPlan", "z z_plus z_minus")):
    """Split of a reservoir of ``z`` qualified candidates into ``z_plus``
    hired and ``z_minus`` rejected, sized so the target group's TP:FN ratio
    is exactly preserved."""

    __slots__ = ()

    def __new__(cls, z: int, z_plus: int, z_minus: int) -> ReservoirPlan:
        if z_plus < 0 or z_minus < 0:
            raise InputError("reservoir split must be nonnegative")
        if z != z_plus + z_minus:
            raise InputError("z must equal z_plus + z_minus")
        return super().__new__(cls, z, z_plus, z_minus)


class ReservoirAttackResult(NamedTuple):
    target_group: str
    plan: ReservoirPlan
    before: GroupedConfusion
    after: GroupedConfusion
    separation_before: MeasureVerdict
    separation_after: MeasureVerdict
    independence_before: MeasureVerdict
    independence_after: MeasureVerdict
    attack: str = "reservoir"


class SwapAttackResult(NamedTuple):
    swapped_pair: tuple[str, str]
    score_gap: float
    after: Dataset


def violates(distance: float) -> bool:
    """Whether a pair with different predictions (D = 1) violates D <= d."""
    return 1.0 > distance


class Violations(list):
    """``(id_a, id_b, individual_distance)`` rows, ``id_a < id_b``, each a pair at prediction
    distance 1 and margin ``1.0 - individual_distance``; JSON writes each as an object."""


class LipschitzReport(NamedTuple):
    #: The scan's own sorted list, handed on to the writer as it is.
    violations: Violations
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
    target_after = ConfusionMatrix(m.a + plan.z_plus, m.b, m.c + plan.z_minus, m.d)
    after = GroupedConfusion({**g.matrices, target: target_after}, g.empty_groups)
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
    each tie broken by the smaller id, so it has the largest score gap. The
    two records are replaced by index; the rest of ``ds`` is shared, and a
    valid dataset stays valid.
    """
    members = [(i, rec) for i, rec in enumerate(ds.records) if rec.group == group]
    if not members:
        raise InputError(f"group {group!r} has no records")
    unscored = [rec.id for _, rec in members if rec.score is None]
    if unscored:
        raise PreconditionError(
            f"group {group!r} has unscored records: {sorted(unscored)}"
        )
    false_negatives = [(float(rec.score), rec.id, i) for i, rec in members if rec.y and not rec.r]
    true_positives = [(-float(rec.score), rec.id, i) for i, rec in members if rec.y and rec.r]
    fn_score, x_id, x = min(false_negatives, default=(math.inf, None, None))
    neg_tp_score, star_id, star = min(true_positives, default=(math.inf, None, None))
    tp_score = -neg_tp_score
    if tp_score <= fn_score:
        raise Infeasible(
            f"group {group!r} has no false negative with a higher-scored true positive"
        )
    records = list(ds.records)
    records[x] = records[x]._replace(r=True)
    records[star] = records[star]._replace(r=False)
    return SwapAttackResult(
        swapped_pair=(x_id, star_id),
        score_gap=tp_score - fn_score,
        after=Dataset(tuple(records), ds.groups),
    )


# ---------------------------------------------------------------------------
# Individual fairness
# ---------------------------------------------------------------------------


def lipschitz_violations(ds: Dataset, scale: float = 1.0) -> LipschitzReport:
    """Find all pairs violating D(prediction) <= d(individuals).

    d(x, y) is the absolute score difference divided by ``scale``, a finite
    number > 0 other than a ``bool`` (NaN would flag no pair, inf every
    pair, ``True`` would pass for 1); D is the discrete metric on binary
    predictions (0 when equal, 1 otherwise), so only pairs with different
    predictions can violate. Records without scores are skipped and
    reported. Violations are ``(id_a, id_b, d)`` rows with the smaller id
    first, sorted by descending margin ``1.0 - d``, then by id pair. Cost: a
    sort of the negatives by score; per positive p, two bisections for the
    window of scores within ``2 * scale`` of p, which holds every violating
    negative after rounding (tied scores too, when ``2 * scale`` is below the
    ulp of p), then two bisections of ``violates`` inside it (float
    arithmetic is monotone, so its violating negatives are one run of that
    order); then the violating rows, grouped by margin: a sort of the
    distinct margins, and of the id pairs only where a margin repeats.
    """
    if isinstance(scale, bool) or not (
        isinstance(scale, Real) and math.isfinite(scale) and scale > 0
    ):
        raise InputError(f"scale must be a finite number > 0, got {scale!r}")
    scored = [rec for rec in ds.records if rec.score is not None]
    skipped = tuple(sorted(rec.id for rec in ds.records if rec.score is None))
    positives = [(rec.id, float(rec.score)) for rec in scored if rec.r]
    negatives = sorted((float(rec.score), rec.id) for rec in scored if not rec.r)
    scores = [t for t, _ in negatives]
    # d - 1.0 is -(1.0 - d) bit for bit, so a bucket holds one margin: its
    # one row, or a list of the rows once a second arrives.
    buckets = {}
    for pid, p in positives:
        near = lambda t: violates(abs(p - t) / scale)
        lo, hi = bisect_left(scores, p - 2 * scale), bisect_right(scores, p + 2 * scale)
        lo = bisect_left(scores, True, lo, hi, key=lambda t: t >= p or near(t))
        hi = bisect_left(scores, True, lo, hi, key=lambda t: t > p and not near(t))
        for t, nid in negatives[lo:hi]:
            d = abs(p - t) / scale
            row = (pid, nid, d) if pid < nid else (nid, pid, d)
            held = buckets.setdefault(d - 1.0, row)
            if held is not row:
                if held.__class__ is list:
                    held.append(row)
                else:
                    buckets[d - 1.0] = [held, row]
    found = Violations()
    for key in sorted(buckets):
        held = buckets[key]
        if held.__class__ is list:
            held.sort()
            found += held
        else:
            found.append(held)
    return LipschitzReport(found, skipped)
