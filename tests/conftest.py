import numpy as np
import pytest


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
