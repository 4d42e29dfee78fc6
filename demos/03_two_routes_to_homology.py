"""The same invariants by two independent routes: chain complex vs Tor/Ext.

The distance algebra has one basis pair per finite-distance ordered pair;
its grade-0 quotient is the trivial module S = trivial_module(space, 0, 1).
Tensoring a module with S's bar resolution computes Tor; Hom-ing the
resolution into a module computes Ext.  Both must agree with the chain-complex route, betti numbers
and torsion alike.

Run:  python demos/03_two_routes_to_homology.py
"""

from maghom import (
    DistanceAlgebra,
    algebra_multiply,
    bar_resolution,
    ext_bidegree,
    magnitude_complex,
    magnitude_cochain_complex,
    radical_power_is_zero,
    resolution_homology,
    tor_bidegree,
    trivial_module,
)
from maghom.instances import c3
from maghom.linalg import QQ, PrimeField
from maghom.space import attainable_grades

space = c3()
algebra = DistanceAlgebra(space)
print("algebra basis pairs:", len(algebra.basis))

ab = algebra.pair_of_labels("a", "b")
bc = algebra.pair_of_labels("b", "c")
print("(a,b)*(b,c) =", algebra_multiply(algebra, {ab: 1}, {bc: 1}))
print("positive pairs nilpotent of order |X|:", radical_power_is_zero(algebra, len(space)))

S = trivial_module(space, 0, 1)
print("quotient dims: grade 0 ->", S.total_rank(0), ", grade 1 ->", S.total_rank(1))

# The bar resolution is exact in its computed middle degrees.
left = bar_resolution(space, "left", 4, 3)
print("resolution degree sizes:", [len(b) for b in left.basis])
print("H_1 of the resolution at grade 2:", resolution_homology(left, 1, 2))

# Crosscheck: chain homology equals Tor(S, S) at every bidegree.
print("\nbidegree   chain (betti, torsion)   tor (betti, torsion)")
for grade in attainable_grades(space, 3):
    cx = magnitude_complex(space, grade, 3)
    for n in range(4):
        chain_h = cx.homology(n)
        tor_h = tor_bidegree(space, S, n, grade, resolution=left)
        assert (chain_h.betti, chain_h.torsion) == (tor_h.betti, tor_h.torsion)
        if chain_h.betti or chain_h.torsion:
            print(
                f"  ({n}, {grade})      {(chain_h.betti, list(chain_h.torsion))}"
                f"                {(tor_h.betti, list(tor_h.torsion))}"
            )

# Cohomology: Ext dimensions match the dual complex over any coefficient field.
right = bar_resolution(space, "right", 4, 3)
for fld in (QQ, PrimeField(2)):
    for grade in (1, 2, 3):
        cochain = magnitude_cochain_complex(space, grade, 3, fld)
        dims = [ext_bidegree(space, S, n, grade, fld, resolution=right) for n in range(4)]
        duals = [cochain.homology_dim_over(n, fld) for n in range(4)]
        assert dims == duals
        print(f"Ext dims over {fld} at grade {grade}: {dims}")
