"""Hypothesis profiles for the test suite, and the bit-for-bit `same_bits`.

``tier1``, the default, seeds each property from its test id and keeps no
example database, so every run tests the same examples, and editing a
property's body does not change what it draws (Hypothesis's own
``derandomize`` seeds from the test's code).  The seed is set just before
each call, since the parametrized ids of one property share its function;
an explicit seed takes precedence over ``derandomize``.  ``explore``,
selected by ``HYPOTHESIS_PROFILE=explore``, draws random examples, ten times
as many; pin what it finds as an ``@example`` of the property.  A property
that sets its own count takes it from `examples`, which scales it the same
way, since an explicit ``max_examples`` overrides the profile's.
``mutate`` (tests/mutate.py) is ``tier1`` without shrinking, so a property
that fails on a mutant costs one run; it draws the same examples.
"""

import os

import numpy as np
import pytest
from hypothesis import Phase, seed, settings

EXPLORE_SCALE = 10
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("mutate", derandomize=True, database=None,
                          phases=set(Phase) - {Phase.shrink})
settings.register_profile(
    "explore", max_examples=EXPLORE_SCALE * settings.default.max_examples)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    """Seed a property from its test id, under every profile but
    ``explore``."""
    test = getattr(item, "function", None)
    if PROFILE != "explore" and getattr(test, "is_hypothesis_test", False):
        seed(item.nodeid)(test)


def examples(n: int) -> int:
    """A property's example count ``n`` under the loaded profile."""
    return n * EXPLORE_SCALE if PROFILE == "explore" else n


def same_bits(got, want):
    """Equal shape, dtype and bytes (so -0.0 differs from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())
