"""Shared fixtures and helpers for the test suite, and the Hypothesis
profiles.

CI's ``differential``, ``verification`` and ``engines`` jobs run with
``HYPOTHESIS_PROFILE=ci``: derandomized (each property fixes its own
seed material, so runs are reproducible) and with a larger example
budget.  Local tier-1 runs use the quicker ``dev`` profile.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable

settings.register_profile(
    "ci",
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def paper_pi():
    """The permutation of the paper's Fig. 7: pi = [0,2,3,5,7,1,4,6]."""
    return BitPermutation([0, 2, 3, 5, 7, 1, 4, 6])


@pytest.fixture
def paper_f4():
    """The bent function of Fig. 4: f = x1x2 XOR x3x4."""
    return TruthTable.from_function(
        4, lambda a, b, c, d: (a and b) ^ (c and d)
    )


# Re-exported for backwards compatibility; the canonical home of these
# helpers is tests/_helpers.py so test modules can import them without
# relying on the ambiguous top-level module name "conftest".
from _helpers import assert_states_equal, random_clifford_t_circuit  # noqa: E402,F401
