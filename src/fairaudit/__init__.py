"""fairaudit: group-fairness auditing for binary classification data.

Evaluates independence (statistical parity), sufficiency, and separation on
grouped confusion matrices, comparing exact per-group rates; verifies the
algebraic properties relating the measures on randomized instances; and
demonstrates gerrymandering attacks that preserve group verdicts while
violating individual fairness.

Records and results are immutable named tuples, read by field name and equal to
the plain tuple of their values; ``_replace`` skips a constructor's checks.
"""

__version__ = "0.1.0"

from .adversary import (
    LipschitzReport,
    ReservoirAttackResult,
    ReservoirPlan,
    SwapAttackResult,
    lipschitz_violations,
    reservoir_attack,
    swap_attack,
)
from .confusion import (
    NEG,
    POS,
    ConfusionMatrix,
    GroupedConfusion,
    is_positive,
    tabulate,
    to_joint,
)
from .conservativeness import (
    FN_TO_TP,
    FP_TO_TN,
    BreakWitness,
    GroupShift,
    Increment,
    JointIndependenceVerdict,
    ProportionalPreservationReport,
    apply_increment,
    check_joint_independence_iff,
    check_proportional_preservation,
    find_break,
    is_perfect,
    perfect_predictor_holds,
)
from .distributions import (
    EPS_DEFAULT,
    DeterministicMap,
    FiniteJoint,
    PropertyVerdict,
    apply_map,
    check_ci_property,
    ci_deviation,
)
from .errors import AuditError, Infeasible, InputError, PreconditionError
from .measures import (
    INDEPENDENCE,
    MEASURES,
    SEPARATION,
    SUFFICIENCY,
    MeasureVerdict,
    evaluate_measure,
    independence,
    separation,
    sufficiency,
)

__all__ = [
    "__version__",
    "AuditError",
    "BreakWitness",
    "ConfusionMatrix",
    "DeterministicMap",
    "EPS_DEFAULT",
    "FN_TO_TP",
    "FP_TO_TN",
    "FiniteJoint",
    "GroupShift",
    "GroupedConfusion",
    "INDEPENDENCE",
    "Increment",
    "Infeasible",
    "InputError",
    "JointIndependenceVerdict",
    "LipschitzReport",
    "MEASURES",
    "MeasureVerdict",
    "NEG",
    "POS",
    "PreconditionError",
    "PropertyVerdict",
    "ProportionalPreservationReport",
    "ReservoirAttackResult",
    "ReservoirPlan",
    "SEPARATION",
    "SUFFICIENCY",
    "SwapAttackResult",
    "apply_increment",
    "apply_map",
    "check_ci_property",
    "check_joint_independence_iff",
    "check_proportional_preservation",
    "ci_deviation",
    "evaluate_measure",
    "find_break",
    "independence",
    "is_perfect",
    "is_positive",
    "lipschitz_violations",
    "perfect_predictor_holds",
    "reservoir_attack",
    "separation",
    "sufficiency",
    "swap_attack",
    "tabulate",
    "to_joint",
]
