"""The hypothesis profiles of tests/conftest.py."""

import contextlib
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import conftest


@contextlib.contextmanager
def profile(name):
    """The hypothesis profile name, loaded for the block; the profile before it is back after."""
    before = settings.get_current_profile_name()
    settings.load_profile(name)
    try:
        yield
    finally:
        settings.load_profile(before)


def drawn(max_examples=None):
    """A hypothesis test function with its own max_examples (the profile's if None)."""
    @given(st.integers())
    def test(x):
        pass

    return test if max_examples is None else settings(max_examples=max_examples)(test)


def test_explore_draws_ten_times_each_tests_own_count():
    # a parametrized test's ids share one function, which drew 10^k times its own count
    # when each of its k ids scaled it; each function is scaled once
    def unrolled():
        pass

    with profile("explore"):
        parametrized, plain = drawn(40), drawn()
        own = plain._hypothesis_internal_use_settings.max_examples
        conftest.pytest_collection_modifyitems(
            [SimpleNamespace(function=f) for f in (parametrized, parametrized, parametrized,
                                                   plain, unrolled)] + [SimpleNamespace()])
    assert parametrized._hypothesis_internal_use_settings.max_examples == 400
    assert plain._hypothesis_internal_use_settings.max_examples == 10 * own
    assert not hasattr(unrolled, "_hypothesis_internal_use_settings")


def test_the_default_profile_keeps_each_tests_own_count():
    with profile("default"):
        parametrized = drawn(40)
        conftest.pytest_collection_modifyitems([SimpleNamespace(function=parametrized)] * 3)
    assert parametrized._hypothesis_internal_use_settings.max_examples == 40
