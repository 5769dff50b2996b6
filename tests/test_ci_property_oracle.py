"""``check_ci_property`` and ``ci_property_status`` against the oracle.

Both now decide premises and conclusions on the kernel's unreduced integer
pairs; ``ci_property_oracle`` is the function as it was, deciding on reduced
``Fraction``s. The verdicts must be equal, key order and value types
included, and the status alone must be the oracle's: on the CI suites'
instances, drawn as ``check-props`` draws them, on arbitrary joints with zero
cells, and on every small joint of one grid.
"""

import itertools
import math
import random

import pytest
from ci_property_oracle import oracle_check_ci_property
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ci_kernel import joints_with_sides

from fairaudit import cli
from fairaudit.distributions import (
    DeterministicMap,
    FiniteJoint,
    check_ci_property,
    ci_property_status,
)
from fairaudit.errors import InputError

EPSILONS = (0.0, 1e-9, 0.05, math.inf, math.nan)
SEEDS = range(5)
COUNT = 10


def outcome(check, *args):
    try:
        return check(*args)
    except InputError as error:
        return ("InputError", str(error))


def assert_matches_the_oracle(k, j, h, eps):
    expected = outcome(oracle_check_ci_property, k, j, h, eps)
    verdict = outcome(check_ci_property, k, j, h, eps)
    assert verdict == expected, (k, eps)
    if isinstance(expected, tuple) and expected[0] == "InputError":
        assert outcome(ci_property_status, k, j, h, eps) == expected
        return
    for got, want in zip(verdict[1:], expected[1:]):  # premises, then conclusions
        assert list(got) == list(want)
        assert all(type(value) is type(want[name]) for name, value in got.items())
    assert ci_property_status(k, j, h, eps) == expected.status


def suite_instances(seed):
    """Every ``(k, joint, map)`` the five CI suites check for ``seed``, drawn
    by the CLI's own suite loop on one generator, as ``check-props`` draws."""
    drawn = []

    def record(k, j, h, eps):
        drawn.append((k, j, h))
        return ci_property_status(k, j, h, eps)

    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "ci_property_status", record)
        for k in range(1, 6):
            cli._run_ci_suite(rng, k, COUNT, 1e-9)
    return drawn


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_instances_match_the_oracle(seed):
    instances = suite_instances(seed)
    assert [k for k, _, _ in instances] == [k for k in range(1, 6) for _ in range(COUNT)]
    for (k, j, h), eps in itertools.product(instances, EPSILONS):
        assert_matches_the_oracle(k, j, h, eps)


#: Maps on every label a drawn joint can hold ("0", "1" and "2"): to a fresh
#: U for property 2, and onto Y's labels for property 3.
LABELS = ("0", "1", "2")
maps = st.tuples(
    st.lists(st.sampled_from(LABELS[:2]), min_size=3, max_size=3),
    st.lists(st.sampled_from(LABELS), min_size=3, max_size=3),
)


@settings(max_examples=50)
@given(joints_with_sides(), maps)
def test_drawn_joints_match_the_oracle(case, images):
    # A joint over 2 to 4 of X, Y, Z and W: a property whose variables are
    # missing must be refused alike.
    j = case[0]
    h2 = DeterministicMap("X", "U", dict(zip(LABELS, images[0])))
    h3 = DeterministicMap("Z", "Y", dict(zip(LABELS, images[1])))
    properties = ((1, None), (2, h2), (3, h3), (4, None), (5, None))
    for (k, h), eps in itertools.product(properties, EPSILONS):
        assert_matches_the_oracle(k, j, h, eps)


def test_every_small_joint_matches_the_oracle():
    # Every X, Y, Z joint on the 2x2x2 grid with weights 0..2 and some mass.
    binary = ("0", "1")
    variables = (("X", binary), ("Y", binary), ("Z", binary))
    keys = list(itertools.product(binary, repeat=3))
    checked = 0
    for weights in itertools.product(range(3), repeat=len(keys)):
        if not any(weights):
            continue
        j = FiniteJoint.from_valid(variables, dict(zip(keys, weights)))
        for k, eps in itertools.product((1, 5), (0.0, 0.05)):
            expected = oracle_check_ci_property(k, j, None, eps).status
            assert ci_property_status(k, j, None, eps) == expected, (k, eps, weights)
        checked += 1
    assert checked == 6560
