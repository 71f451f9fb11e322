"""Exact classification of pointed fusion categories of global dimension p^3.

The package computes, for any odd prime p in range, the automorphism orbits
of explicit degree-4 integral cohomology models of the five groups of order
p^3, classifies quadratic forms over F_p up to congruence, verifies the
spectral-sequence data behind the derived weak-Morita equivalences, and
assembles the Morita-class partition with its merged tables.
"""

from .groups import FAMILIES, Family, build_group
from .h4_models import CohClass, H4Model, action_generators, h4_model
from .lhs_morita import CASES, emit_table, morita_components, omega
from .orbits import enumerate_orbits
from .quadforms import QuadForm, are_congruent, congruence_invariant, representatives, select_h

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "Family",
    "build_group",
    "CohClass",
    "H4Model",
    "action_generators",
    "h4_model",
    "CASES",
    "emit_table",
    "morita_components",
    "omega",
    "enumerate_orbits",
    "QuadForm",
    "are_congruent",
    "congruence_invariant",
    "representatives",
    "select_h",
    "__version__",
]
