"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile, so every run of
the suite draws the same examples and its result does not depend on a seed.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
