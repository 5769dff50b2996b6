"""Every joint of a small scope, checked against the five CI properties at eps 0.

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

Run as a script from the repository root, the module checks them all (about
4 s on a 2-vCPU Xeon), prints one tally per property and exits 1 if any
joint fails:

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

#: The scopes of properties 1, 2, 3 and 5 with weights 0..1: 2,550 joints.
REDUCED = tuple(scope._replace(top=1) for scope in FULL if scope.k != 4)


def tally(scope: Scope) -> Counter:
    """The count of each status at eps 0 over the scope."""
    variables = tuple((name, BINARY) for name in scope.names)
    keys = list(itertools.product(BINARY, repeat=len(variables)))
    statuses: Counter = Counter()
    for weights in itertools.product(range(scope.top + 1), repeat=len(keys)):
        if any(weights):
            j = FiniteJoint.from_valid(variables, dict(zip(keys, weights)))
            statuses.update(ci_property_status(scope.k, j, h, 0.0) for h in scope.maps)
    return statuses


def main() -> int:
    failed = False
    for scope in FULL:
        statuses = tally(scope)
        failed |= statuses[FAIL] > 0 or sum(statuses.values()) != scope.size
        counts = ", ".join(f"{status} {n:,}" for status, n in sorted(statuses.items()))
        print(f"property {scope.k}: {scope.size:,} joints at eps 0: {counts}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
