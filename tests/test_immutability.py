"""Every record type of ``fairaudit.__all__`` and every result type of
``report`` is immutable and compared by value: assigning or deleting a field
and adding an attribute raise ``AttributeError``, and an instance rebuilt from
the same arguments is equal, with an equal hash where every field is hashable.
Copies, deep copies and pickled round trips are equal too.

Each instance is built twice from the same arguments, which come from the
library's own results on the CLI's demo table and a seeded scored dataset.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from builders import random_scored_dataset, synthesize_dataset

from fairaudit import cli
from fairaudit.adversary import (
    LipschitzReport,
    ReservoirAttackResult,
    ReservoirPlan,
    SwapAttackResult,
    lipschitz_violations,
    reservoir_attack,
    swap_attack,
)
from fairaudit.confusion import ConfusionMatrix, Dataset, GroupedConfusion
from fairaudit.conservativeness import (
    FN_TO_TP,
    BreakWitness,
    GroupShift,
    Increment,
    JointIndependenceVerdict,
    ProportionalPreservationReport,
    check_joint_independence_iff,
    check_proportional_preservation,
    find_break,
)
from fairaudit.distributions import DeterministicMap, FiniteJoint, PropertyVerdict
from fairaudit.ingest import CsvSchema
from fairaudit.measures import MeasureVerdict, sufficiency
from fairaudit.report import (
    BreakSearch,
    CISuite,
    Counterexample,
    Demo,
    FairnessReport,
    FlooredCISuite,
    JointIndependenceSuites,
    LipschitzCheck,
    PropertySuites,
    Suite,
    SwapAudit,
    build_report,
)

EPS = 1e-9


def arguments() -> dict[type, tuple]:
    """Constructor arguments for one instance of each type."""
    g = GroupedConfusion(cli.DEMO_BEFORE)
    shift = GroupShift("p", FN_TO_TP, 1)
    increment = Increment((shift, GroupShift("q", FN_TO_TP, 1)))
    verdict = sufficiency(g, EPS)
    witness = find_break(g, EPS, 2)
    reservoir = reservoir_attack(g, "p", 100, EPS)
    ds, group = random_scored_dataset(random.Random(0))
    swap = swap_attack(ds, group)
    scan = lipschitz_violations(swap.after)
    lipschitz = LipschitzCheck(1.0, scan.violations, scan.skipped, True)
    suite, ci_suite = Suite(3, 0), CISuite(3, 0, 2, 1)
    joint_suites = JointIndependenceSuites(suite, suite)
    report = build_report(g, EPS, 2)
    after = build_report(witness.after, EPS)
    return {
        ConfusionMatrix: (10, 2, 3, 11),
        GroupedConfusion: (cli.DEMO_BEFORE, ("r",)),
        Dataset: (synthesize_dataset(g).records, ("p", "q")),
        CsvSchema: (("Yes",), ("no",), ("p", "q")),
        FiniteJoint: ((("X", ("0", "1")), ("Y", ("0", "1"))), {("0", "1"): 2, ("1", "1"): 3}),
        DeterministicMap: ("X", "U", {"0": "a", "1": "b"}),
        PropertyVerdict: ("pass", {"x_indep_y_given_z": Fraction(0)}, {"y": Fraction(0)}),
        MeasureVerdict: tuple(verdict),
        GroupShift: tuple(shift),
        Increment: (increment.shifts,),
        JointIndependenceVerdict: tuple(check_joint_independence_iff(g, EPS)),
        BreakWitness: tuple(witness),
        ProportionalPreservationReport: tuple(check_proportional_preservation(g, EPS)),
        ReservoirPlan: tuple(reservoir.plan),
        ReservoirAttackResult: tuple(reservoir)[:-1],
        SwapAttackResult: tuple(swap),
        LipschitzReport: tuple(scan),
        BreakSearch: (2, witness),
        Counterexample: (2, None),
        Demo: tuple(Demo.of(report, increment, after)),
        LipschitzCheck: tuple(lipschitz),
        SwapAudit: (group, swap.swapped_pair, swap.score_gap, True, g, {"x": verdict}, lipschitz),
        Suite: tuple(suite),
        CISuite: tuple(ci_suite),
        FlooredCISuite: (*ci_suite, 0.05),
        JointIndependenceSuites: tuple(joint_suites),
        PropertySuites: (42, 3, EPS, {"1": ci_suite}, suite, joint_suites, 0),
        FairnessReport: tuple(report),
    }


ARGUMENTS = arguments()


@pytest.mark.parametrize("kind", ARGUMENTS, ids=lambda kind: kind.__name__)
def test_immutable_and_compared_by_value(kind: type) -> None:
    x = kind(*ARGUMENTS[kind])
    for name in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    rebuilt = kind(*ARGUMENTS[kind])
    assert rebuilt == x and not rebuilt != x
    assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x
    try:
        hash(tuple(x))
    except TypeError:
        return  # a field is a dict or a list
    assert hash(rebuilt) == hash(x)


@pytest.mark.parametrize("kind", [GroupedConfusion, FiniteJoint], ids=lambda kind: kind.__name__)
def test_repr_is_a_constructor_call(kind: type) -> None:
    # Only the fields show: a joint's denominator is derived, not an argument.
    x = kind(*ARGUMENTS[kind])
    assert eval(repr(x), {"ConfusionMatrix": ConfusionMatrix, kind.__name__: kind}) == x
