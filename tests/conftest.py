import numpy as np
import pytest

import weylmass.mass
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


@pytest.fixture
def skip_weyl_alf_probes(monkeypatch):
    """Switch off the Weyl-ALF verdicts of the flux pass, for tests that run data outside the Weyl-ALF class
    through it (random trial metrics, an oscillating metric).  The probe jets are still taken, and the
    positivity and adapted-class probes of a sweep's factors still run."""
    monkeypatch.setattr(weylmass.mass, "require_weyl_alf", lambda ws, jet, theta_jet, h_jet: [])
