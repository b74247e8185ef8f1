import numpy as np
import pytest

from weylmass.engine import DerivativeEngine
from weylmass.model import ModelSpace

from oracles import FDEngine


@pytest.fixture(scope="session")
def model():
    return ModelSpace(m=3, R=1.0, L=2.0 * np.pi, fibration="trivial")


@pytest.fixture(scope="session")
def hopf_space():
    return ModelSpace(m=3, R=1.0, L=2.0 * np.pi, fibration="hopf")


@pytest.fixture(scope="session")
def engine():
    return DerivativeEngine()


@pytest.fixture(scope="session")
def fd_engine():
    return FDEngine()
