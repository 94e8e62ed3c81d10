"""Hypothesis profiles for the test suite.

``tier1``, the default, derandomizes the draws and keeps no example
database, so every run of one commit tests the same examples.  ``explore``,
selected by ``HYPOTHESIS_PROFILE=explore``, draws random examples, ten times
as many; pin what it finds as an ``@example`` of the property.  A property
that sets its own count takes it from `examples`, which scales it the same
way, since an explicit ``max_examples`` overrides the profile's.
"""

import os

from hypothesis import settings

EXPLORE_SCALE = 10
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "explore", max_examples=EXPLORE_SCALE * settings.default.max_examples)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """A property's example count ``n`` under the loaded profile."""
    return n * EXPLORE_SCALE if PROFILE == "explore" else n
