"""Weak Morita classes: 5p+32 components and the merged tables.

The derived equivalences are instantiated over their parameter ranges,
canonicalized through the orbit indices, and merged with union-find.  The
nontrivial components reproduce the published tables; everything else is a
singleton.
"""

from pcubed.lhs_morita import emit_table, morita_components

for p in (3, 5):
    graph = morita_components(p)
    hist = dict(sorted(graph.size_histogram().items()))
    print(f"p={p}: {len(graph.components)} Morita classes (= 5*{p}+32), sizes {hist}")
    print()
    print(emit_table(graph))
    print()
