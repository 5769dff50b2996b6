"""The generators' draw helpers and builders as they were before.

``_labels`` formats each label on every call, ``_weights`` draws through
``Random.uniform``, and ``_below`` through ``Random.randrange``. Patched into
:mod:`fairaudit.generators`, they must yield the same instances and leave the
random state where the current helpers do.

The ``random_*`` builders below are the generators as they were when they
built every matrix and table through the checking constructors
(``ConfusionMatrix``, ``GroupedConfusion`` and ``FiniteJoint``), and when the
non-proportional generator accepted a draw by its verdicts' ``Fraction``
gaps, and when the joint generators drew each factor into a dict keyed by
label (``_distribution`` below). They draw through the current module's
helpers, so the two differ only in how they build and accept what they drew.
"""

from __future__ import annotations

import random
from typing import Sequence
from fractions import Fraction

from fairaudit import generators
from fairaudit.confusion import ConfusionMatrix, GroupedConfusion, to_joint
from fairaudit.distributions import FiniteJoint, ci_deviation
from fairaudit.generators import MAX_GROUPS, RESOLUTION
from fairaudit.measures import separation, sufficiency


def _labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _weights(rng: random.Random, n: int, low: float = 0.0) -> list[int]:
    return [round(rng.uniform(low, 1.0) * RESOLUTION) for _ in range(n)]


def _below(rng: random.Random, n: int) -> int:
    return rng.randrange(n)


def _distribution(rng: random.Random, domain: Sequence[str], low: float = 0.0) -> dict[str, int]:
    return dict(zip(domain, generators._weights(rng, len(domain), low)))


def product_joint(
    pz: dict[str, int], px: dict[str, dict[str, int]], py: dict[str, dict[str, int]]
) -> FiniteJoint:
    """The joint over (X, Y, Z) of weight ``pz[z] * px[z][x] * py[z][y]``, built
    through the public constructor; ``px`` and ``py`` map each z to a row."""
    z_dom = tuple(pz)
    x_dom, y_dom = tuple(px[z_dom[0]]), tuple(py[z_dom[0]])
    table = {
        (x, y, z): pz[z] * px[z][x] * py[z][y] for z in z_dom for x in x_dom for y in y_dom
    }
    return FiniteJoint((("X", x_dom), ("Y", y_dom), ("Z", z_dom)), table)


def random_ci_instance(rng: random.Random) -> FiniteJoint:
    nx, ny, nz = generators.random_sizes(rng, 3)
    z_dom = generators._labels(nz)
    pz = _distribution(rng, z_dom, low=0.05)
    px = {z: _distribution(rng, generators._labels(nx)) for z in z_dom}
    py = {z: _distribution(rng, generators._labels(ny)) for z in z_dom}
    return product_joint(pz, px, py)


def random_chain_instance(rng: random.Random) -> FiniteJoint:
    nx, ny, nz, nw = generators.random_sizes(rng, 4, 2, 2)
    x_dom, y_dom, z_dom, w_dom = map(generators._labels, (nx, ny, nz, nw))
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
    return FiniteJoint((("X", x_dom), ("Y", y_dom), ("Z", z_dom), ("W", w_dom)), table)


def random_pair_ci_instance(rng: random.Random) -> FiniteJoint:
    nx, ny, nz, nw = generators.random_sizes(rng, 4, 2, 2)
    x_dom, y_dom, z_dom, w_dom = map(generators._labels, (nx, ny, nz, nw))
    pz = _distribution(rng, z_dom, low=0.05)
    px = {z: _distribution(rng, x_dom) for z in z_dom}
    pairs = [(w, y) for w in w_dom for y in y_dom]
    pwy = {z: dict(zip(pairs, generators._weights(rng, len(pairs)))) for z in z_dom}
    table = {
        (x, y, z, w): pz[z] * px[z][x] * pwy[z][(w, y)]
        for x in x_dom
        for (w, y) in pairs
        for z in z_dom
    }
    return FiniteJoint((("X", x_dom), ("Y", y_dom), ("Z", z_dom), ("W", w_dom)), table)


def random_perfect_grouped(rng: random.Random) -> GroupedConfusion:
    groups = generators._group_labels(rng.randint(2, MAX_GROUPS))
    matrices = {}
    for group in groups:
        a, d = 0, 0
        while a + d == 0:
            a, d = rng.randint(0, 20), rng.randint(0, 20)
        matrices[group] = ConfusionMatrix(a, 0, 0, d)
    return GroupedConfusion(matrices)


def random_positive_grouped(rng: random.Random) -> GroupedConfusion:
    groups = generators._group_labels(rng.randint(2, MAX_GROUPS))
    return GroupedConfusion(
        {
            group: ConfusionMatrix(
                rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30)
            )
            for group in groups
        }
    )


def random_proportional_grouped(rng: random.Random) -> GroupedConfusion:
    base = ConfusionMatrix(
        rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
    )
    groups = generators._group_labels(rng.randint(2, MAX_GROUPS))
    return GroupedConfusion({group: base.scaled(rng.randint(1, 4)) for group in groups})


def random_nonproportional_grouped(rng: random.Random) -> GroupedConfusion:
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


#: The builders above, by the name of the generator each one was.
BUILDERS = {
    name: globals()[name]
    for name in (
        "random_ci_instance",
        "random_chain_instance",
        "random_pair_ci_instance",
        "random_perfect_grouped",
        "random_positive_grouped",
        "random_proportional_grouped",
        "random_nonproportional_grouped",
    )
}
