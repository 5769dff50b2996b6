"""Seeded random instance builders for the verification suites.

Everything takes an explicit ``random.Random`` so suites are reproducible;
the same seed always yields the same instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .confusion import ConfusionMatrix, GroupedConfusion, to_joint
from .distributions import DeterministicMap, FiniteJoint, apply_map, ci_deviation, compose_ci
from .measures import separation, sufficiency

#: Smallest cell mass guaranteed by the positivity generator.
POSITIVITY_FLOOR = 1e-3

#: Largest number of groups in a random grouped table.
MAX_GROUPS = 3

#: Integer weight of a uniform draw of 1; a draw u becomes round(u * RESOLUTION).
RESOLUTION = 1000


def _labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _weights(rng: random.Random, n: int, low: float = 0.0) -> list[int]:
    return [round(rng.uniform(low, 1.0) * RESOLUTION) for _ in range(n)]


def _distribution(rng: random.Random, domain: Sequence[str], low: float = 0.0) -> dict[str, int]:
    return dict(zip(domain, _weights(rng, len(domain), low)))


def random_joint(
    rng: random.Random, variables: Sequence[tuple[str, Sequence[str]]]
) -> FiniteJoint:
    """Generic random joint with integer weights from uniform draws in [0, 1]."""
    variables = tuple((name, tuple(domain)) for name, domain in variables)
    keys = [()]
    for _, domain in variables:
        keys = [key + (value,) for key in keys for value in domain]
    return FiniteJoint(variables=variables, table=dict(zip(keys, _weights(rng, len(keys)))))


def random_sizes(rng: random.Random, count: int, low: int = 2, high: int = 3) -> list[int]:
    return [rng.randint(low, high) for _ in range(count)]


def random_ci_instance(rng: random.Random) -> FiniteJoint:
    """A joint with X independent of Y given Z, by construction."""
    nx, ny, nz = random_sizes(rng, 3)
    z_dom = _labels(nz)
    pz = _distribution(rng, z_dom, low=0.05)
    px = {z: _distribution(rng, _labels(nx)) for z in z_dom}
    py = {z: _distribution(rng, _labels(ny)) for z in z_dom}
    return compose_ci(pz, px, py)


def random_map(rng: random.Random, source: str, target: str, domain: Sequence[str]) -> DeterministicMap:
    """Random total map; target domain size 2 when possible so the map is
    usually non-injective."""
    values = _labels(min(2, len(domain)))
    mapping = {value: rng.choice(values) for value in domain}
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
        mapping={value: rng.choice(("u", "v")) for value in _labels(nz)},
    )
    return apply_map(base, h), h


def random_chain_instance(rng: random.Random) -> FiniteJoint:
    """Joint over (X, Y, Z, W) with weights w(z) w(x|z) w(y|z) w(w|y,z), so
    both X ind. Y | Z and X ind. W | (Y, Z) hold exactly by construction."""
    nx, ny, nz, nw = random_sizes(rng, 4, 2, 2)
    x_dom, y_dom, z_dom, w_dom = map(_labels, (nx, ny, nz, nw))
    pz = _distribution(rng, z_dom, low=0.05)
    px = {z: _distribution(rng, x_dom) for z in z_dom}
    py = {z: _distribution(rng, y_dom) for z in z_dom}
    pw = {(y, z): _distribution(rng, w_dom) for y in y_dom for z in z_dom}
    table = {
        (x, y, z, w): pz[z] * px[z][x] * py[z][y] * pw[(y, z)][w]
        for x in x_dom
        for y in y_dom
        for z in z_dom
        for w in w_dom
    }
    variables = (("X", x_dom), ("Y", y_dom), ("Z", z_dom), ("W", w_dom))
    return FiniteJoint(variables=variables, table=table)


def random_pair_ci_instance(rng: random.Random) -> FiniteJoint:
    """Joint over (X, Y, Z, W) with weights w(z) w(x|z) w(w,y|z), so X is
    independent of the (W, Y) pair given Z exactly by construction."""
    nx, ny, nz, nw = random_sizes(rng, 4, 2, 2)
    x_dom, y_dom, z_dom, w_dom = map(_labels, (nx, ny, nz, nw))
    pz = _distribution(rng, z_dom, low=0.05)
    px = {z: _distribution(rng, x_dom) for z in z_dom}
    pairs = [(w, y) for w in w_dom for y in y_dom]
    pwy = {z: dict(zip(pairs, _weights(rng, len(pairs)))) for z in z_dom}
    table = {
        (x, y, z, w): pz[z] * px[z][x] * pwy[z][(w, y)]
        for x in x_dom
        for (w, y) in pairs
        for z in z_dom
    }
    variables = (("X", x_dom), ("Y", y_dom), ("Z", z_dom), ("W", w_dom))
    return FiniteJoint(variables=variables, table=table)


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
    joint = FiniteJoint(
        variables=(("X", x_dom), ("Y", y_dom), ("Z", z_dom)), table=table
    )
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
    groups = _group_labels(rng.randint(2, MAX_GROUPS))
    matrices = {}
    for group in groups:
        a, d = 0, 0
        while a + d == 0:
            a, d = rng.randint(0, 20), rng.randint(0, 20)
        matrices[group] = ConfusionMatrix(a, 0, 0, d)
    return GroupedConfusion(matrices)


def random_positive_grouped(rng: random.Random) -> GroupedConfusion:
    """Strictly positive cells, each at most 30, in every group."""
    groups = _group_labels(rng.randint(2, MAX_GROUPS))
    return GroupedConfusion(
        {
            group: ConfusionMatrix(
                rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30)
            )
            for group in groups
        }
    )


def random_proportional_grouped(rng: random.Random) -> GroupedConfusion:
    """Positive matrices that are exact integer multiples (1 to 4) of a common
    base, so the group variable is independent of the (Y, R) pair."""
    base = ConfusionMatrix(
        rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
    )
    groups = _group_labels(rng.randint(2, MAX_GROUPS))
    return GroupedConfusion({group: base.scaled(rng.randint(1, 4)) for group in groups})


def random_nonproportional_grouped(rng: random.Random) -> GroupedConfusion:
    """Positive matrices whose rates differ by at least 1/20 and whose exact
    deviation from joint independence exceeds 1/1000 (at most 1000 draws)."""
    for _ in range(1000):
        g = random_positive_grouped(rng)
        gaps = [
            gap
            for verdict in (sufficiency(g), separation(g))
            for gap in verdict.component_gaps.values()
        ]
        if any(gap is not None and gap >= Fraction(1, 20) for gap in gaps) and (
            ci_deviation(to_joint(g), "A", ("Y", "R")) > Fraction(1, 1000)
        ):
            return g
    raise AssertionError("failed to generate a non-proportional instance")
