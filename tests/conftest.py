import pytest

from qvista import fixtures


@pytest.fixture(scope="session")
def cantor():
    return fixtures.fixture("cantor", depth=4, sample_depth=6)


@pytest.fixture(scope="session")
def cantor_small():
    return fixtures.fixture("cantor", depth=3, sample_depth=5)


@pytest.fixture(scope="session")
def dyadic():
    return fixtures.fixture("interval_dyadic", depth=4, sample_exp=7)


@pytest.fixture(scope="session")
def tree():
    return fixtures.fixture("tree_example_3_7", depth=4)


@pytest.fixture(scope="session")
def interleaved():
    return fixtures.fixture("dyadic_interleaved", k_max=3, sample_exp=8)


@pytest.fixture(scope="session")
def gasket():
    return fixtures.fixture("sierpinski_gasket", depth=3, sample_depth=4)


@pytest.fixture(scope="session")
def grid101():
    return fixtures.grid_space(101)
