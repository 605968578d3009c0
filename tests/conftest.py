import pytest

from qpskit import foldy_generators


@pytest.fixture(scope="session")
def foldy():
    return foldy_generators()


@pytest.fixture(scope="session")
def foldy_spinless():
    return {k: v.substitute_spin_zero() for k, v in foldy_generators().items()}
