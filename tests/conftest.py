import numpy as np
import pytest
from hypothesis import is_hypothesis_test, settings

# Tier-1 replays the same draws on every run: each property test's examples follow from its
# own code, and no example database carries draws from one run into the next.  The explore
# profile (pytest --hypothesis-profile explore) draws fresh examples, ten times each test's
# own count; a failure it finds goes into that test as an explicit @example
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)


def pytest_collection_modifyitems(items):
    if settings.get_current_profile_name() != "explore":
        return
    # the ids of a parametrized test share its function, so each function is scaled once
    tests = {id(item.function): item.function for item in items if hasattr(item, "function")}
    for test in tests.values():
        if is_hypothesis_test(test):
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=10 * own.max_examples)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def inversion_sizes(monkeypatch) -> list[int]:
    """Sizes of the target arrays of every m_log_inverse call made by the rate engine."""
    import tauberian_lab.rates as rates_module

    sizes = []
    inverse = rates_module.m_log_inverse

    def counted(M, C, y, *args, **kwargs):
        sizes.append(np.size(y))
        return inverse(M, C, y, *args, **kwargs)

    monkeypatch.setattr(rates_module, "m_log_inverse", counted)
    return sizes
