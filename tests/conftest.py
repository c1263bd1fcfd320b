import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # a test extra: only the property tests need it
    pass
else:
    # every run tries the same examples, so a property test gives the same verdict each time
    settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=100)
    settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
