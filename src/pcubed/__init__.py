"""Exact classification of pointed fusion categories of global dimension p^3.

The package computes, for any odd prime p in range, the automorphism orbits
of explicit degree-4 integral cohomology models of the five groups of order
p^3, classifies quadratic forms over F_p up to congruence, verifies the
spectral-sequence data behind the derived weak-Morita equivalences, and
assembles the Morita-class partition with its merged tables.

The names below are re-exported from their home modules on first access
(PEP 562), so ``from pcubed import quadforms`` loads only what that module
imports.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "FAMILIES": "groups",
    "Family": "groups",
    "build_group": "groups",
    "CohClass": "h4_models",
    "H4Model": "h4_models",
    "action_generators": "h4_models",
    "h4_model": "h4_models",
    "CASES": "lhs_morita",
    "emit_table": "lhs_morita",
    "morita_components": "lhs_morita",
    "omega": "lhs_morita",
    "enumerate_orbits": "orbits",
    "QuadForm": "quadforms",
    "are_congruent": "quadforms",
    "congruence_invariant": "quadforms",
    "representatives": "quadforms",
    "select_h": "quadforms",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # resolved once
    return value
