"""Every joint of a small scope, checked against the five CI properties.

At eps 0 a conclusion is derived only from premises that are exactly 0, and
then each property holds exactly: properties 1-4 are the semi-graphoid axioms
and 5 is intersection, which needs the positive ``min_cell`` its premises
include (Pearl & Paz, *Graphoids*, 1987). So no joint of a scope may fail.
A scope is every joint of binary variables whose weights run over ``0..top``,
with some mass, under each map of ``maps``. The full scopes:

    property (scope)                                    joints
    1 symmetry (binary X,Y,Z, weights 0..2)              6,560
    2 with all 4 maps X->U (the same joints)            26,240
    3 with all 4 maps Z->Y (the same joints)            26,240
    4 (binary X,Y,Z,W, weights 0..1)                    65,535
    5 intersection (binary X,Y,Z, weights 0..2)          6,560

At eps > 0 two properties keep an exact bound, checked on every joint of
their scope (``BOUNDS``): property 1 because dev(X,Y|Z) = dev(Y,X|Z) as the
kernel's integer pairs, and property 4's backward half (decomposition)
because dev(X,Y|Z) <= |W| dev(X,(W,Y)|Z). Property 4's forward half and
property 5 hold only at eps 0 (``TestApproximatePremises`` in
``test_distributions.py`` pins a failure of each at eps 0.05). Properties 2
and 3 claim no bound; ``APPROXIMATE`` runs their full scopes at eps 0.05,
where no joint fails.

Run as a script from the repository root, the module checks them all (about
9 s on a 2-vCPU Xeon), prints one tally per scope and exits 1 if any joint
fails or breaks its bound:

    PYTHONPATH=src python tests/ci_property_scopes.py

Tier-1 checks ``REDUCED`` (``test_ci_property_scopes.py``).
"""


from __future__ import annotations

import itertools
import sys
from collections import Counter
from typing import NamedTuple

from fairaudit.distributions import (
    FAIL,
    DeterministicMap,
    FiniteJoint,
    _ci_pair,
    ci_property_status,
)

BINARY = ("0", "1")


def every_map(source: str, target: str) -> tuple[DeterministicMap, ...]:
    """The four maps from a binary ``source`` to binary labels of ``target``."""
    return tuple(
        DeterministicMap(source, target, dict(zip(BINARY, images)))
        for images in itertools.product(BINARY, repeat=2)
    )


class Scope(NamedTuple):
    k: int  # the property
    names: str  # its binary variables, in key order
    top: int  # the largest weight of a cell
    maps: tuple[DeterministicMap | None, ...]  # each joint is checked under each
    eps: float = 0.0

    @property
    def size(self) -> int:
        """The joints checked: every weight vector but the all-zero one, per map."""
        return ((self.top + 1) ** 2 ** len(self.names) - 1) * len(self.maps)


FULL = (
    Scope(1, "XYZ", 2, (None,)),
    Scope(2, "XYZ", 2, every_map("X", "U")),
    Scope(3, "XYZ", 2, every_map("Z", "Y")),
    Scope(4, "XYZW", 1, (None,)),
    Scope(5, "XYZ", 2, (None,)),
)

#: Properties 2 and 3 on their full scopes at eps 0.05.
APPROXIMATE = tuple(scope._replace(eps=0.05) for scope in FULL if scope.k in (2, 3))

#: The scopes of properties 1, 2, 3 and 5 with weights 0..1: 2,550 joints.
REDUCED = tuple(scope._replace(top=1) for scope in FULL if scope.k != 4)


def symmetric(j: FiniteJoint) -> bool:
    """Property 1 at any eps: its premise and conclusion are one integer
    pair, since each cell's |w p(z) - p(x,z) p(y,z)| is symmetric in X and Y."""
    return _ci_pair(j, "X", "Y", "Z") == _ci_pair(j, "Y", "X", "Z")


def decomposition_bounded(j: FiniteJoint) -> bool:
    """Property 4's backward half at any eps: dev(X,Y|Z) <= |W| dev(X,(W,Y)|Z),
    since each cell of the first is a sum over W of cells of the second."""
    part, whole = _ci_pair(j, "X", "Y", "Z")
    joint_part, joint_whole = _ci_pair(j, "X", ("W", "Y"), "Z")
    return part * joint_whole <= len(j.domain("W")) * joint_part * whole


#: The exact bound a property keeps at any eps, where one is claimed.
BOUNDS = {1: symmetric, 4: decomposition_bounded}


def tally(scope: Scope) -> tuple[Counter, int]:
    """The count of each status at the scope's eps, and the joints that break
    its property's bound (0 where ``BOUNDS`` claims none)."""
    variables = tuple((name, BINARY) for name in scope.names)
    keys = list(itertools.product(BINARY, repeat=len(variables)))
    bound = BOUNDS.get(scope.k)
    statuses: Counter = Counter()
    broken = 0
    for weights in itertools.product(range(scope.top + 1), repeat=len(keys)):
        if any(weights):
            j = FiniteJoint.from_valid(variables, dict(zip(keys, weights)))
            statuses.update(ci_property_status(scope.k, j, h, scope.eps) for h in scope.maps)
            broken += bound is not None and not bound(j)
    return statuses, broken


def main() -> int:
    failed = False
    for scope in FULL + APPROXIMATE:
        statuses, broken = tally(scope)
        failed |= statuses[FAIL] > 0 or broken > 0 or sum(statuses.values()) != scope.size
        counts = ", ".join(f"{status} {n:,}" for status, n in sorted(statuses.items()))
        bound = f"; {BOUNDS[scope.k].__name__} broken {broken:,}" if scope.k in BOUNDS else ""
        print(f"property {scope.k}: {scope.size:,} joints at eps {scope.eps}: {counts}{bound}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
