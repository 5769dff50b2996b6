"""The suite generators draw the same instances as the oracle helpers and
the oracle builders.

``check-props`` prints only counts, so its goldens cannot see a changed
stream of instances. ``_below`` must draw as ``Random.randrange`` does, the
random state included. Every ``random_*`` generator the CLI imports draws 50
instances for each of seeds 0-19, once with the current helpers and once
with ``generator_oracle``'s patched in; the instances must be equal, with the
same repr (cell order and value types included), and the random state must
be equal after every draw. The generators that build their tables from valid
parts are compared the same way with ``generator_oracle``'s builders, which
build through the checking constructors and accept non-proportional draws by
their verdicts, patched in.
"""

import random

import generator_oracle
import pytest

from fairaudit import cli, generators
from fairaudit.confusion import GroupedConfusion

SEEDS = range(20)
DRAWS = 50

#: Arguments after the rng, for the generators that take any.
ARGS = {"random_map": ("X", "U", ("0", "1", "2"))}

GENERATORS = sorted(
    name
    for name, value in vars(cli).items()
    if name.startswith("random_") and getattr(value, "__module__", "") == generators.__name__
)


def _draws(name: str, seed: int) -> list[tuple]:
    generate, rng = getattr(generators, name), random.Random(seed)
    out = []
    for _ in range(DRAWS):
        instance = generate(rng, *ARGS.get(name, ()))
        out.append((instance, repr(instance), rng.getstate()))
    return out


def test_every_cli_generator_is_covered():
    assert len(GENERATORS) == 9
    assert set(ARGS) <= set(GENERATORS)


@pytest.mark.parametrize("name", GENERATORS)
def test_draws_match_the_oracle_helpers(name, monkeypatch):
    for seed in SEEDS:
        current = _draws(name, seed)
        with monkeypatch.context() as patch:
            patch.setattr(generators, "_labels", generator_oracle._labels)
            patch.setattr(generators, "_weights", generator_oracle._weights)
            patch.setattr(generators, "_below", generator_oracle._below)
            oracle = _draws(name, seed)
        assert current == oracle, (name, seed)


def test_below_draws_as_randrange():
    # Every width from 1 to 64, and each side of every power of two up to 2**70.
    widths = [*range(1, 65), *(2**k + d for k in range(1, 71) for d in (-1, 1))]
    for seed in range(3):
        rng, expected = random.Random(seed), random.Random(seed)
        for n in widths:
            for _ in range(3):
                assert generators._below(rng, n) == expected.randrange(n), (seed, n)
                assert rng.getstate() == expected.getstate(), (seed, n)


@pytest.mark.parametrize("name", sorted(generator_oracle.BUILDERS))
def test_draws_match_the_oracle_builders(name, monkeypatch):
    for seed in SEEDS:
        current = _draws(name, seed)
        with monkeypatch.context() as patch:
            for builder, build in generator_oracle.BUILDERS.items():
                patch.setattr(generators, builder, build)
            oracle = _draws(name, seed)
        assert current == oracle, (name, seed)


def test_non_proportional_draws_are_accepted_from_a_gap_of_one_twentieth(monkeypatch):
    # Seeded draws almost never land near the threshold, so the positive
    # generator is replaced by fixed tables. Both deviate from joint
    # independence by more than 1/1000; the largest rate gap of ``below`` is
    # 11/230, under 1/20, and that of ``exact`` is 1/20 (FPR 3/20 against 2/20).
    below = GroupedConfusion.from_valid({"g0": (9, 21, 17, 9), "g1": (7, 15, 15, 8)})
    exact = GroupedConfusion.from_valid({"g0": (25, 3, 19, 17), "g1": (27, 2, 19, 18)})
    wide = GroupedConfusion.from_valid({"g0": (1, 30, 30, 1), "g1": (30, 1, 1, 30)})
    for module in (generators, generator_oracle):
        draws = iter([below, exact, wide])
        monkeypatch.setattr(module, "random_positive_grouped", lambda rng: next(draws))
        assert module.random_nonproportional_grouped(random.Random(0)) == exact, module
