import pytest

from normfam.forge import build_p, construct


@pytest.fixture(scope="session")
def family():
    """Constructed members for orders 1..6, shared across the suite."""
    return {n: construct(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def exponents():
    """Exponents p_n for orders 1..12, at 53 bits up to 6 and 128 above,
    the precisions the construction uses."""
    return {n: build_p(n, 53 if n <= 6 else 128) for n in range(1, 13)}
