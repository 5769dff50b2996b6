"""On every table of the reduced scopes of ``table_scopes``, each measure is
its CI statement at eps 0 and sufficiency of the transposed table is
separation; the full scopes run as a script."""

from table_scopes import FULL, REDUCED, ci_statement_tally, duality_tally, tables


def test_the_scopes_are_the_stated_ones():
    assert [(scope.groups, scope.top, scope.size) for scope in REDUCED + FULL] == [
        (2, 2, 3_240),
        (3, 1, 680),
        (2, 3, 32_640),
        (3, 2, 88_560),
    ]
    for scope in REDUCED:
        keys = [tuple(g.matrices.values()) for g in tables(scope)]
        assert len(set(keys)) == len(keys) == scope.size
        assert all(list(key) == sorted(key) for key in keys)


def test_each_measure_is_its_ci_statement_at_eps_zero():
    tally = ci_statement_tally(REDUCED)
    assert tally["comparable"] == 8_410
    assert tally["mismatches"] == 0
    assert 0 < tally["holds"] < tally["comparable"]  # both verdicts are checked


def test_sufficiency_of_the_transposed_table_is_separation():
    tally = duality_tally(REDUCED)
    assert tally["comparisons"] == 3 * 3_920
    assert tally["failures"] == 0
    # The tie exemption is met, and used only where the witnesses differ.
    assert (tally["ties"], tally["other_witnesses"]) == (471, 23)
