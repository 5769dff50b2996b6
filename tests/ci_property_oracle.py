"""``check_ci_property`` as it was when it decided each premise and
conclusion on a reduced ``Fraction``.

It computed every deviation as :func:`~fairaudit.distributions.ci_deviation`,
property 3's violation mass and property 5's ``min_cell`` as ``Fraction``s,
and asked ``within`` about each one's integer ratio. The current function
decides the same tests on the kernel's unreduced integer pairs; its verdicts,
and ``ci_property_status``, must equal this one's.
"""

from __future__ import annotations

from fractions import Fraction

from fairaudit.distributions import (
    EPS_DEFAULT,
    FAIL,
    PASS,
    VACUOUS,
    DeterministicMap,
    FiniteJoint,
    PropertyVerdict,
    apply_map,
    ci_deviation,
    within,
)
from fairaudit.errors import InputError


def _functional_violation_mass(j: FiniteJoint, h: DeterministicMap) -> Fraction:
    """Total mass on assignments where target != h(source)."""
    src = j.index(h.source)
    tgt = j.index(h.target)
    weight = sum(w for key, w in j.table.items() if key[tgt] != h(key[src]))
    return Fraction(weight, j.denominator)


def oracle_check_ci_property(
    k: int,
    j: FiniteJoint,
    h: DeterministicMap | None = None,
    eps: float = EPS_DEFAULT,
) -> PropertyVerdict:
    """Numerically verify one of the five conditional-independence properties
    on a concrete instance.

    The instance uses canonical variable names: X, Y, Z (properties 1, 2, 3,
    5) plus W (property 4). Property 2 additionally needs ``h`` mapping X to a
    fresh variable; property 3 needs ``h`` mapping Z onto Y.

    1. X ind. Y | Z  implies  Y ind. X | Z.
    2. X ind. Y | Z and U = h(X)  imply  (i) U ind. Y | Z and
       (ii) X ind. Y | (Z, U).
    3. Y = h(Z)  implies  X ind. Y | Z.
    4. X ind. Y | Z and X ind. W | (Y, Z)  iff  X ind. (W, Y) | Z: the forward
       direction rests on the first two deviations, the backward on the third.
    5. X ind. Y | Z, X ind. Z | Y and full positivity  imply  X ind. (Y, Z).

    A conclusion is derived only when its own premises are within ``eps``
    (property 5's also need a positive ``min_cell``). A verdict that derives
    none is vacuous: it asserts nothing and is distinct from a failure.
    """

    def fits(dev: Fraction) -> bool:
        return within(*dev.as_integer_ratio(), eps)

    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= 5:
        raise InputError(f"property id must be 1..5, got {k!r}")
    conclusions: dict[str, Fraction] = {}
    if k == 1:
        premise = ci_deviation(j, "X", "Y", "Z")
        premises = {"x_indep_y_given_z": premise}
        if fits(premise):
            conclusions = {"y_indep_x_given_z": ci_deviation(j, "Y", "X", "Z")}
    elif k == 2:
        if h is None or h.source != "X":
            raise InputError("property 2 needs a DeterministicMap from X")
        premise = ci_deviation(j, "X", "Y", "Z")
        premises = {"x_indep_y_given_z": premise}
        if fits(premise):
            extended = apply_map(j, h)
            u = h.target
            conclusions = {
                f"{u.lower()}_indep_y_given_z": ci_deviation(extended, u, "Y", "Z"),
                f"x_indep_y_given_z{u.lower()}": ci_deviation(extended, "X", "Y", ("Z", u)),
            }
    elif k == 3:
        if h is None or h.source != "Z" or h.target != "Y":
            raise InputError("property 3 needs a DeterministicMap from Z onto Y")
        premise = _functional_violation_mass(j, h)
        premises = {"y_equals_h_of_z_violation_mass": premise}
        if fits(premise):
            conclusions = {"x_indep_y_given_z": ci_deviation(j, "X", "Y", "Z")}
    elif k == 4:
        dev_a = ci_deviation(j, "X", "Y", "Z")
        dev_b = ci_deviation(j, "X", "W", ("Y", "Z"))
        dev_c = ci_deviation(j, "X", ("W", "Y"), "Z")
        premises = {
            "x_indep_y_given_z": dev_a,
            "x_indep_w_given_yz": dev_b,
            "x_indep_wy_given_z": dev_c,
        }
        if fits(dev_a) and fits(dev_b):
            conclusions["forward_x_indep_wy_given_z"] = dev_c
        if fits(dev_c):
            conclusions["backward_x_indep_y_given_z"] = dev_a
            conclusions["backward_x_indep_w_given_yz"] = dev_b
    else:  # k == 5
        min_cell = j.min_cell()
        dev_xy = ci_deviation(j, "X", "Y", "Z")
        dev_xz = ci_deviation(j, "X", "Z", "Y")
        premises = {
            "positivity_min_cell": min_cell,
            "x_indep_y_given_z": dev_xy,
            "x_indep_z_given_y": dev_xz,
        }
        if min_cell > 0 and fits(dev_xy) and fits(dev_xz):
            conclusions = {"x_indep_yz": ci_deviation(j, "X", ("Y", "Z"))}

    if not conclusions:
        return PropertyVerdict(VACUOUS, premises, {})
    status = PASS if all(map(fits, conclusions.values())) else FAIL
    return PropertyVerdict(status, premises, conclusions)
