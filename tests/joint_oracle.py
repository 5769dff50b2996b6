"""Oracles for joints the library derives without checking their variables
or cells.

``assert_revalidates`` rebuilds a derived joint through the public
constructor, which checks the variables and every cell, and requires the same
joint field for field. It is where a derived joint's variables are checked:
``FiniteJoint.from_valid`` checks only the mass, so the tests run it on every
builder (the generators, ``to_joint`` and ``apply_map``). ``oracle_min_cell``
and ``oracle_target_domain`` are ``FiniteJoint.min_cell`` and ``apply_map``'s
target domain as they were before: a walk over the whole assignment grid, and
a list built with a membership test per source label.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from fairaudit.distributions import DeterministicMap, FiniteJoint


def assert_revalidates(j: FiniteJoint) -> None:
    """``j`` passes the public constructor's checks and equals its result,
    field and denominator types included."""
    validated = FiniteJoint(j.variables, dict(j.table))
    assert j == validated
    for name in ("variables", "table", "denominator"):
        assert getattr(j, name) == getattr(validated, name), name
        assert type(getattr(j, name)) is type(getattr(validated, name)), name
    assert all(type(pair) is tuple and type(pair[1]) is tuple for pair in j.variables)


def oracle_min_cell(j: FiniteJoint) -> Fraction:
    grid = itertools.product(*(domain for _, domain in j.variables))
    weight = min(j.table.get(key, 0) for key in grid)
    return Fraction(weight, j.denominator)


def oracle_target_domain(j: FiniteJoint, h: DeterministicMap) -> tuple[str, ...]:
    source_dom = j.domain(h.source)
    target_dom: list[str] = []
    for value in source_dom:
        mapped = h(value)
        if mapped not in target_dom:
            target_dom.append(mapped)
    return tuple(target_dom)
