"""The cohomology ring: cup product, chain-level lifts, structure constants.

Run:  python demos/04_cohomology_ring.py
"""

from maghom import (
    bar_resolution,
    cohomology_classes,
    cup,
    lift_square_commutes,
    ring_table,
    unit_cochain,
    yoneda_lift,
    yoneda_product,
)
from maghom.instances import k2
from maghom.linalg import QQ

space = k2()

# Cocycle bases with explicit representatives, bidegree by bidegree.
for n in range(3):
    cs = cohomology_classes(space, n, n, QQ)
    print(f"classes at ({n}, {n}):", cs.dim())

# The cup product concatenates tuples at a shared midpoint.
[dx, dy] = cohomology_classes(space, 1, 1, QQ).representatives
print("dual(x,y) . dual(y,x):", cup(dx, dy).coeffs)
print("dual(x,y) . dual(x,y):", cup(dx, dx).coeffs, "(incompatible midpoint)")

u = unit_cochain(space, QQ)
print("unit absorbs:", cup(u, dx).coeffs == dx.coeffs == cup(dx, u).coeffs)

# The same product through the resolution: lift one factor degree by degree,
# one image per free generator, then read the other factor on the image
# generators.  The lift is a chain map.
res = bar_resolution(space, "left", 4, 4)
lifts = {k: yoneda_lift(res, dy, k) for k in range(0, 3)}
for k in (1, 2):
    print(f"lift square at k={k} commutes:", lift_square_commutes(lifts[k], lifts[k - 1]))

prod = yoneda_product(dx, dy, res)
print("resolution route == cup route:", prod.coeffs == cup(dx, dy).coeffs)

# Structure constants of the whole ring inside a bidegree box.
table = ring_table(space, 2, 2, QQ)
print("\nring table classes:", {k: cs.dim() for k, cs in sorted(table.classes.items())})
for p in table.products:
    if p["result"]:
        print(f"  {p['lhs']} * {p['rhs']} -> {p['result']}")
