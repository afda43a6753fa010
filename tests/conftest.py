import pytest

from bergkern import ConstantWeight, StepWeight


@pytest.fixture(scope="session")
def step18():
    return StepWeight.from_plateau(18.0, 0.25)


@pytest.fixture(scope="session")
def const1():
    return ConstantWeight(1.0)

