import pytest

from normfam.forge import build_p, construct


@pytest.fixture(scope="session")
def family():
    """Constructed members for orders 1..6, shared across the suite."""
    return {n: construct(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def exponents():
    """The exact exponents (c1, c2, c3) for orders 1..12."""
    return {n: build_p(n) for n in range(1, 13)}
