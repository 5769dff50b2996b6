"""The generators' draw helpers as they were before they drew inline.

``_labels`` formats each label on every call, and ``_weights`` draws through
``Random.uniform``. Patched into :mod:`fairaudit.generators`, they must yield
the same instances and leave the random state where the current helpers do.
"""

from __future__ import annotations

import random

from fairaudit.generators import RESOLUTION


def _labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _weights(rng: random.Random, n: int, low: float = 0.0) -> list[int]:
    return [round(rng.uniform(low, 1.0) * RESOLUTION) for _ in range(n)]
