"""The suite generators draw the same instances as the oracle helpers.

``check-props`` prints only counts, so its goldens cannot see a changed
stream of instances. Every ``random_*`` generator the CLI imports draws 50
instances for each of seeds 0-19, once with the current helpers and once
with ``generator_oracle``'s patched in; the instances must be equal, with the
same repr (cell order and value types included), and the random state must
be equal after every draw.
"""

import random

import generator_oracle
import pytest

from fairaudit import cli, generators

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
            oracle = _draws(name, seed)
        assert current == oracle, (name, seed)
