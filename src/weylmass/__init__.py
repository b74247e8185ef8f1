"""Numerical Weyl-connection calculus and ALF-type mass integrals.

The package builds circle-fibered model charts, differentiates tensor
fields on them exactly by Taylor jets, realizes
the conformal-connection operators d^D, delta^D, Lap^D and their
curvatures, and verifies the Bochner-type identities and mass gauge laws
by independent numerical paths.
"""

from .engine import DerivativeEngine, Field
from .errors import ChartDomainError, ConfigError, DegreeError, GaugeMismatchError, JetError, MassNotDefinedError
from .families import LeeFormField, MetricFamily, ScalarField
from .model import ModelSpace, sphere_volume
from .weyl import FormFieldSpec, WeylStructure, gauge_change, lee_jet

__version__ = "0.1.0"

__all__ = [
    "ChartDomainError",
    "ConfigError",
    "DegreeError",
    "DerivativeEngine",
    "Field",
    "FormFieldSpec",
    "GaugeMismatchError",
    "JetError",
    "LeeFormField",
    "MassNotDefinedError",
    "MetricFamily",
    "ModelSpace",
    "ScalarField",
    "WeylStructure",
    "gauge_change",
    "lee_jet",
    "sphere_volume",
]
