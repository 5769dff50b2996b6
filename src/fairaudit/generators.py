"""Seeded random instance builders for the verification suites.

Everything takes an explicit ``random.Random`` so suites are reproducible;
the same seed always yields the same instances. The joint builders draw each
factor's weights as a list, in a fixed order, and index it by position. Every
integer draw is ``_below``, the getrandbits rule of ``randint`` and ``choice``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from .confusion import GroupedConfusion, to_joint
from .distributions import DeterministicMap, FiniteJoint, apply_map, ci_deviation
# sufficiency and separation stay bound for perfbench/replay.py
from .measures import SEPARATION, SUFFICIENCY, cell_gaps, separation, sufficiency

#: Smallest cell mass guaranteed by the positivity generator.
POSITIVITY_FLOOR = 1e-3

#: Largest number of groups in a random grouped table.
MAX_GROUPS = 3

#: Integer weight of a uniform draw of 1; a draw u becomes round(u * RESOLUTION).
RESOLUTION = 1000

# Every domain label a generator uses: no domain has more than 3 labels.
_LABELS = ("0", "1", "2")


def _labels(n: int) -> tuple[str, ...]:
    return _LABELS[:n]


def _below(rng: random.Random, n: int) -> int:
    # Random._randbelow's own rule (CPython 3.10-3.12), drawn inline: the same
    # draws as randint and choice, without their extra frames.
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _weights(rng: random.Random, n: int, low: float = 0.0) -> list[int]:
    # Random.uniform(low, 1.0)'s own formula, drawn inline: bit-identical weights.
    span, draw = 1.0 - low, rng.random
    return [round((low + span * draw()) * RESOLUTION) for _ in range(n)]


def random_joint(
    rng: random.Random, variables: Sequence[tuple[str, Sequence[str]]]
) -> FiniteJoint:
    """Generic random joint with integer weights from uniform draws in [0, 1].
    The caller's variables are taken as valid: distinct names and nonempty
    domains that repeat no label."""
    variables = tuple((name, tuple(domain)) for name, domain in variables)
    keys = list(itertools.product(*(domain for _, domain in variables)))
    return FiniteJoint.from_valid(variables, dict(zip(keys, _weights(rng, len(keys)))))


def random_sizes(rng: random.Random, count: int, low: int = 2, high: int = 3) -> list[int]:
    return [low + _below(rng, high - low + 1) for _ in range(count)]


def random_ci_instance(rng: random.Random) -> FiniteJoint:
    """A joint with X independent of Y given Z, by construction."""
    nx, ny, nz = random_sizes(rng, 3)
    x_dom, y_dom, z_dom = map(_labels, (nx, ny, nz))
    pz = _weights(rng, nz, low=0.05)
    px = [_weights(rng, nx) for _ in z_dom]
    py = [_weights(rng, ny) for _ in z_dom]
    grid = itertools.product(enumerate(z_dom), enumerate(x_dom), enumerate(y_dom))
    table = {(x, y, z): pz[k] * px[k][i] * py[k][j] for (k, z), (i, x), (j, y) in grid}
    return FiniteJoint.from_valid((("X", x_dom), ("Y", y_dom), ("Z", z_dom)), table)


def random_map(rng: random.Random, source: str, target: str, domain: Sequence[str]) -> DeterministicMap:
    """Random total map; target domain size 2 when possible so the map is
    usually non-injective."""
    values = _labels(min(2, len(domain)))
    mapping = {value: values[_below(rng, len(values))] for value in domain}
    return DeterministicMap(source=source, target=target, mapping=mapping)


def random_functional_instance(
    rng: random.Random,
) -> tuple[FiniteJoint, DeterministicMap]:
    """A joint over (X, Z, Y) with Y defined as h(Z) and X, Z coupled."""
    nx, nz = random_sizes(rng, 2)
    base = random_joint(rng, [("X", _labels(nx)), ("Z", _labels(nz))])
    h = DeterministicMap(
        source="Z",
        target="Y",
        mapping={value: ("u", "v")[_below(rng, 2)] for value in _labels(nz)},
    )
    return apply_map(base, h), h


def random_chain_instance(rng: random.Random) -> FiniteJoint:
    """Joint over (X, Y, Z, W) with weights w(z) w(x|z) w(y|z) w(w|y,z), so
    both X ind. Y | Z and X ind. W | (Y, Z) hold exactly by construction."""
    nx, ny, nz, nw = random_sizes(rng, 4, 2, 2)
    x_dom, y_dom, z_dom, w_dom = map(_labels, (nx, ny, nz, nw))
    pz = _weights(rng, nz, low=0.05)
    px = [_weights(rng, nx) for _ in z_dom]
    py = [_weights(rng, ny) for _ in z_dom]
    pw = [[_weights(rng, nw) for _ in z_dom] for _ in y_dom]
    table = {
        (x, y, z, w): pz[k] * px[k][i] * py[k][j] * pw[j][k][m]
        for i, x in enumerate(x_dom)
        for j, y in enumerate(y_dom)
        for k, z in enumerate(z_dom)
        for m, w in enumerate(w_dom)
    }
    variables = (("X", x_dom), ("Y", y_dom), ("Z", z_dom), ("W", w_dom))
    return FiniteJoint.from_valid(variables, table)


def random_pair_ci_instance(rng: random.Random) -> FiniteJoint:
    """Joint over (X, Y, Z, W) with weights w(z) w(x|z) w(w,y|z), so X is
    independent of the (W, Y) pair given Z exactly by construction."""
    nx, ny, nz, nw = random_sizes(rng, 4, 2, 2)
    x_dom, y_dom, z_dom, w_dom = map(_labels, (nx, ny, nz, nw))
    pz = _weights(rng, nz, low=0.05)
    px = [_weights(rng, nx) for _ in z_dom]
    pairs = [(w, y) for w in w_dom for y in y_dom]
    pwy = [_weights(rng, len(pairs)) for _ in z_dom]
    table = {
        (x, y, z, w): pz[k] * px[k][i] * pwy[k][p]
        for i, x in enumerate(x_dom)
        for p, (w, y) in enumerate(pairs)
        for k, z in enumerate(z_dom)
    }
    variables = (("X", x_dom), ("Y", y_dom), ("Z", z_dom), ("W", w_dom))
    return FiniteJoint.from_valid(variables, table)


def random_product_instance(rng: random.Random) -> FiniteJoint:
    """Strictly positive joint over (X, Y, Z) with X independent of the
    (Y, Z) pair, every cell's mass at least ``POSITIVITY_FLOOR``."""
    nx, ny, nz = random_sizes(rng, 3)
    x_dom, y_dom, z_dom = map(_labels, (nx, ny, nz))
    # Weight floors chosen so every cell's mass is at least POSITIVITY_FLOOR:
    # a floor f against max weight 1 over n weights keeps a share >= f / n,
    # so the worst cell is 400 * 100 / (3000 * 9000), about 1.5e-3.
    px = _weights(rng, nx, low=0.4)
    pyz = _weights(rng, ny * nz, low=max(0.1, POSITIVITY_FLOOR * ny * nz * 3))
    table = {
        (x, y, z): px[i] * pyz[j * nz + k]
        for i, x in enumerate(x_dom)
        for j, y in enumerate(y_dom)
        for k, z in enumerate(z_dom)
    }
    joint = FiniteJoint.from_valid((("X", x_dom), ("Y", y_dom), ("Z", z_dom)), table)
    if joint.min_cell() < POSITIVITY_FLOOR:
        raise AssertionError(
            f"positivity generator produced a cell below floor={POSITIVITY_FLOOR}"
        )
    return joint


# ---------------------------------------------------------------------------
# Grouped confusion tables
# ---------------------------------------------------------------------------


def _group_labels(n: int) -> tuple[str, ...]:
    return tuple(f"g{i}" for i in range(n))


def random_perfect_grouped(rng: random.Random) -> GroupedConfusion:
    """Perfect predictor per group (no false cells); zero TP or TN cells are
    allowed so undefined rates stay reachable."""
    groups = _group_labels(2 + _below(rng, MAX_GROUPS - 1))
    tally = {}
    for group in groups:
        a, d = 0, 0
        while a + d == 0:
            a, d = _below(rng, 21), _below(rng, 21)
        tally[group] = (a, 0, 0, d)
    return GroupedConfusion.from_valid(tally)


def random_positive_grouped(rng: random.Random) -> GroupedConfusion:
    """Strictly positive cells, each at most 30, in every group."""
    groups = _group_labels(2 + _below(rng, MAX_GROUPS - 1))
    tally = {group: [1 + _below(rng, 30) for _ in range(4)] for group in groups}
    return GroupedConfusion.from_valid(tally)


def random_proportional_grouped(rng: random.Random) -> GroupedConfusion:
    """Positive matrices that are exact integer multiples (1 to 4) of a common
    base, so the group variable is independent of the (Y, R) pair."""
    base = [1 + _below(rng, 12) for _ in range(4)]
    groups = _group_labels(2 + _below(rng, MAX_GROUPS - 1))
    multipliers = {group: 1 + _below(rng, 4) for group in groups}
    tally = {group: [k * cell for cell in base] for group, k in multipliers.items()}
    return GroupedConfusion.from_valid(tally)


def random_nonproportional_grouped(rng: random.Random) -> GroupedConfusion:
    """Positive matrices whose rates differ by at least 1/20 and whose exact
    deviation from joint independence exceeds 1/1000 (at most 1000 draws)."""
    for _ in range(1000):
        g = random_positive_grouped(rng)
        wide = any(
            20 * part >= whole  # positive cells leave no gap undefined
            for measure in (SUFFICIENCY, SEPARATION)
            for part, whole, _, _ in cell_gaps(measure, g.matrices.values()).values()
        )
        if wide and ci_deviation(to_joint(g), "A", ("Y", "R")) > Fraction(1, 1000):
            return g
    raise AssertionError("failed to generate a non-proportional instance")
