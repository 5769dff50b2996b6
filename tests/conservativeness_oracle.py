"""``check_conservativeness`` and its ``ConservativenessReport`` as they were
when the audit built them for its perfect-predictor check.

The report held the sufficiency, separation and independence verdicts of the
perfect table beside ``holds``, decided by ``perfect_predictor_holds``. The
audit now writes the same ``perfect_check`` from its own three verdicts and
``holds``; both must equal this report's.
"""

from __future__ import annotations

from typing import NamedTuple

from fairaudit.confusion import GroupedConfusion
from fairaudit.conservativeness import perfect_predictor_holds
from fairaudit.distributions import EPS_DEFAULT
from fairaudit.measures import MeasureVerdict, independence, separation, sufficiency


class ConservativenessReport(NamedTuple):
    """Prop-style report for a perfect predictor: sufficiency and separation
    must hold, while independence may still fail and is reported alongside."""

    sufficiency: MeasureVerdict
    separation: MeasureVerdict
    independence: MeasureVerdict
    holds: bool


def check_conservativeness(
    g: GroupedConfusion, eps: float = EPS_DEFAULT
) -> ConservativenessReport:
    """On a perfect predictor, assert that sufficiency and separation hold:
    ``holds`` is :func:`perfect_predictor_holds`, beside both verdicts.
    Independence carries no such guarantee; its verdict is reported alongside
    to illustrate that a perfect predictor is in general incompatible with it.
    """
    holds = perfect_predictor_holds(g, eps)
    verdicts = (sufficiency(g, eps), separation(g, eps), independence(g, eps))
    return ConservativenessReport(*verdicts, holds)
