"""The graded-ring engine at work: Bocksteins, pullbacks, differentials.

A few hand-picked computations, then the full identity suite and the
spectral-sequence page verification.
"""

from pcubed.graded_ring import (
    bockstein,
    derivation,
    exterior_bockstein_ring,
    rank2_extension_ring,
    verify_identity_suite,
)
from pcubed.lhs_morita import verify_pages

p = 3

R = exterior_bockstein_ring(3, p)
x1, x2, x3 = (R.gen(f"x{i}") for i in (1, 2, 3))
print("beta(x1*x2*x3) =", bockstein(x1 * x2 * x3))

d2 = derivation(R, {"x2": R.gen("y1")})
print("d2(beta(x2*x3)) =", d2(bockstein(x2 * x3)))

H = rank2_extension_ring(p, "w", "z", "t")
w1, w2, t = H.gen("w1"), H.gen("w2"), H.gen("t")
kappa = w1 * w2
d3 = derivation(H, {"t": bockstein(kappa)})
print("d3(t)   =", d3(t))
print("d3(t^2) =", d3(t * t))
print("d3(t*w1) = beta(w1*w2*w1) =", bockstein(kappa * w1))

print()
checks = verify_identity_suite(p)
print(f"identity suite at p={p}: {sum(c.ok for c in checks)}/{len(checks)} pass")
pages = verify_pages(p)
print(f"page verification at p={p}: {sum(c.ok for c in pages)}/{len(pages)} pass")
for c in checks[:6]:
    print(" ", c.line())
