"""Exact classification of pointed fusion categories of global dimension p^3.

Import each name from its module: ``groups`` (the five groups of order p^3),
``h4_models`` (the degree-4 cohomology models and their Aut(G) actions),
``orbits`` (the orbit engine), ``quadforms`` (quadratic forms over F_p) and
``lhs_morita`` (the spectral-sequence checks and the weak-Morita classes)."""
