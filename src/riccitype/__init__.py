"""Reduced symplectic symmetric spaces of Ricci type.

Construction of the three normal-form models, numerical verification of
the reduced geometry (form, connection, curvature, symmetries), transvection
algebra certificates, and construction plus certification of simply
transitive subgroups where they exist.
"""

from .core import (
    CharacteristicElement,
    SymplecticModel,
    build_A_from_ricci,
    build_model,
    exp_tA,
    sample_sigma,
    sigma_value,
)

__all__ = [
    "CharacteristicElement",
    "SymplecticModel",
    "build_A_from_ricci",
    "build_model",
    "exp_tA",
    "sample_sigma",
    "sigma_value",
]

__version__ = "0.1.0"
