"""No CI property fails at eps 0 on any joint of the reduced scopes of
``ci_property_scopes``, and property 1 keeps its symmetry on each; the full
scopes run as a script."""

import pytest
from ci_property_scopes import APPROXIMATE, FULL, REDUCED, tally

from fairaudit.distributions import FAIL, PASS, SLOT_TABLE_CELLS


def test_the_full_scopes_are_the_stated_ones():
    assert [(scope.k, scope.size) for scope in FULL] == [
        (1, 6_560),
        (2, 26_240),
        (3, 26_240),
        (4, 65_535),
        (5, 6_560),
    ]
    assert [(scope.k, scope.size, scope.eps) for scope in APPROXIMATE] == [
        (2, 26_240, 0.05),
        (3, 26_240, 0.05),
    ]
    # Every joint of a scope, property 2's with U added, keeps a key table.
    assert all(2 ** (len(scope.names) + (scope.k == 2)) <= SLOT_TABLE_CELLS for scope in FULL)


@pytest.mark.parametrize("scope", REDUCED, ids=lambda scope: f"property-{scope.k}")
def test_no_property_fails_at_eps_zero(scope):
    statuses, broken = tally(scope)
    assert statuses[FAIL] == 0
    assert broken == 0  # property 1's symmetry; the others claim no bound here
    assert sum(statuses.values()) == scope.size
    assert statuses[PASS] > 0  # some joint derives a conclusion
