"""Acceptance battery: one test per criterion, one PASS line each.

Bounds and tolerances are pinned here and nowhere else; every comparison is
exact (integer or exact-rational arithmetic throughout).
"""

import itertools
import time
from fractions import Fraction

from maghom.algebra import DistanceAlgebra, radical_power_is_zero
from maghom.chain import (
    enumerate_tuples,
    magnitude_cochain_complex,
    magnitude_complex,
)
from maghom.distmod import hom_from_trivial, invariants, trivial_module
from maghom.gen import digraphs_up_to_iso, random_module, random_space
from maghom.instances import k2, standard_suite, standard_suite_digraphs
from maghom.linalg import QQ, FieldColumnSpan, PrimeField
from maghom.quiver import check_bound_quiver_presentation
from maghom.resolution import bar_resolution, ext_bidegree, resolution_homology, tor_bidegree
from maghom.ring import (
    coboundary_of,
    cochain_vector,
    cohomology_classes,
    cup,
    lift_square_commutes,
    unit_cochain,
    yoneda_lift,
    yoneda_product,
)
from maghom.space import attainable_grades, digraph_to_space

F2 = PrimeField(2)
SUITE = standard_suite()
SUITE_DIGRAPHS = standard_suite_digraphs()


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_complex_validity():
    start = time.time()
    graphs = digraphs_up_to_iso(4)
    assert len(graphs) == 1 + 3 + 16 + 218  # exhaustive up to isomorphism
    checked = 0
    for g in graphs:
        space = digraph_to_space(g)
        for grade in attainable_grades(space, 5):
            assert magnitude_complex(space, grade, 5).verify()
            assert magnitude_cochain_complex(space, grade, 5, QQ).verify()
            checked += 2
    for seed in range(200):
        space = random_space(2 + seed % 3, seed)
        for grade in attainable_grades(space, Fraction(5, 2)):
            assert magnitude_complex(space, grade, 5).verify()
            assert magnitude_cochain_complex(space, grade, 5, QQ).verify()
            checked += 2
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime target exceeded: {elapsed:.1f}s"
    _report(1, f"dd=0 for {checked} complexes (238 digraphs + 200 spaces) in {elapsed:.1f}s")


def test_criterion_2_k2_ladder():
    space = k2()
    for grade in range(6):
        cx = magnitude_complex(space, grade, 5)
        for n in range(6):
            h = cx.homology(n)
            expected = 2 if n == grade else 0
            assert h.betti == expected, (n, grade, h)
            assert h.torsion == ()
    _report(2, "two-point space: betti 2 exactly on the diagonal, n,l <= 5, no torsion")


def test_criterion_3_tor_crosscheck():
    start = time.time()
    bidegrees = 0
    for name, space in SUITE:
        triv = trivial_module(space, 0, 1)
        res = bar_resolution(space, "left", 4, 4)
        for grade in attainable_grades(space, 4):
            cx = magnitude_complex(space, grade, 3)
            for n in range(4):
                chain_h = cx.homology(n)
                tor_h = tor_bidegree(space, triv, n, grade, resolution=res)
                assert (chain_h.betti, chain_h.torsion) == (tor_h.betti, tor_h.torsion), (
                    name,
                    n,
                    grade,
                )
                bidegrees += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"runtime target exceeded: {elapsed:.1f}s"
    _report(3, f"chain homology == Tor (betti and torsion) at {bidegrees} bidegrees in {elapsed:.1f}s")


def test_criterion_4_cohomology_duality():
    checked = 0
    for name, space in SUITE:
        triv = trivial_module(space, 0, 1)
        res = bar_resolution(space, "right", 4, 4)
        for grade in attainable_grades(space, 4):
            chain = magnitude_complex(space, grade, 3)
            for fld in (QQ, F2):
                cochain = magnitude_cochain_complex(space, grade, 3, fld)
                for n in range(4):
                    ext_dim = ext_bidegree(space, triv, n, grade, fld, resolution=res)
                    cochain_dim = cochain.homology_dim_over(n, fld)
                    chain_dim = chain.homology_dim_over(n, fld)
                    assert ext_dim == cochain_dim == chain_dim, (name, n, grade, fld)
                    checked += 1
    _report(4, f"dim Ext == cochain dim == chain dim over Q and F2 at {checked} spots")


def _class_reps(space, n_cap, l_cap, fld):
    reps = {}
    for grade in attainable_grades(space, l_cap):
        for n in range(n_cap + 1):
            cs = cohomology_classes(space, n, grade, fld)
            if cs.dim():
                reps[(n, grade)] = cs.representatives
    return reps


def test_criterion_5_yoneda_equals_cup():
    products = 0
    lifts = 0
    for name, space in SUITE:
        res = bar_resolution(space, "left", 3, 4)
        reps = _class_reps(space, 3, 4, QQ)
        for (n, grade), cocycles in reps.items():
            for phi in cocycles:
                lift_cache = {k: yoneda_lift(res, phi, k) for k in range(0, 3 - n + 1)}
                for k in range(1, 3 - n + 1):
                    assert lift_square_commutes(lift_cache[k], lift_cache[k - 1]), (
                        name,
                        n,
                        grade,
                        k,
                    )
                    lifts += 1
        for (m, s), left in reps.items():
            for (n, l), right in reps.items():
                if m + n > 3 or s + l > 4:
                    continue
                for psi, phi in itertools.product(left, right):
                    assert yoneda_product(psi, phi, res).coeffs == cup(psi, phi).coeffs, (
                        name,
                        (m, s),
                        (n, l),
                    )
                    products += 1
    _report(5, f"yoneda == cup coefficientwise on {products} products; {lifts} lift squares exact")


def _coboundary_span(space, n, grade, fld):
    cx = magnitude_cochain_complex(space, grade, n, fld)
    dim = cx.dim(n)
    span = FieldColumnSpan(fld)
    if n >= 1:
        prev = cx.coboundary(n - 1)
        for col in range(prev.cols):
            vec = [fld.of(0)] * dim
            for (r, c), v in prev.entries.items():
                if c == col:
                    vec[r] = fld.of(v)
            span.add(vec)
    return cx, span


def test_criterion_6_ring_axioms():
    pairs = triples = absorbed = 0
    for name, space in SUITE:
        reps = _class_reps(space, 3, 4, QQ)
        flat = [c for reps_list in reps.values() for c in reps_list]
        u = unit_cochain(space, QQ)
        for phi in flat:
            assert cup(u, phi).coeffs == phi.coeffs
            assert cup(phi, u).coeffs == phi.coeffs
        for psi, phi in itertools.product(flat, repeat=2):
            if psi.n + phi.n > 3 or psi.grade + phi.grade > 4:
                continue
            assert coboundary_of(cup(psi, phi)).is_zero(), (name, psi, phi)
            pairs += 1
        for chi, psi, phi in itertools.product(flat, repeat=3):
            if chi.n + psi.n + phi.n > 3 or chi.grade + psi.grade + phi.grade > 4:
                continue
            assert cup(cup(chi, psi), phi).coeffs == cup(chi, cup(psi, phi)).coeffs
            triples += 1
        # coboundary absorption: psi . delta(tau) and delta(tau) . psi land in im(delta)
        for (n, grade) in list(reps):
            for t in enumerate_tuples(space, n, grade):
                tau = type(u)(space, n, grade, QQ, {t: 1})
                phi = coboundary_of(tau)
                if phi.is_zero():
                    continue
                for psi in reps.get((0, Fraction(0)), [])[:2]:
                    for prod in (cup(psi, phi), cup(phi, psi)):
                        cx, span = _coboundary_span(space, prod.n, prod.grade, QQ)
                        vec = cochain_vector(prod, cx.bases[prod.n])
                        assert span.contains(vec), (name, n, grade)
                        absorbed += 1
                break  # one coboundary per bidegree keeps the battery quick
    _report(
        6,
        f"unit laws, {pairs} cocycle products closed, {triples} associativity triples, "
        f"{absorbed} coboundary absorptions",
    )


def test_criterion_7_invariants_as_hom():
    checked = 0
    for seed in range(100):
        _, space = SUITE[seed % len(SUITE)]
        module = random_module(space, seed, max_rank=2, max_grade=3)
        ranks = {b.grade: b.rank for b in invariants(module)}
        grades = set(module.grades()) | set(ranks)
        for grade in sorted(grades):
            assert hom_from_trivial(module, grade) == ranks.get(grade, 0), (seed, grade)
            checked += 1
    _report(7, f"hom-from-trivial rank == invariants rank on 100 modules ({checked} grades)")


def test_criterion_8_bound_quiver_presentation():
    for name, graph in SUITE_DIGRAPHS:
        report = check_bound_quiver_presentation(graph, 4)
        assert report.ok(), name
        assert report.relations_inside_square
        space = digraph_to_space(graph)
        for grade, quotient_dim, pair_count in report.dims:
            expected = sum(
                1
                for i in range(len(space))
                for j in range(len(space))
                if space.d(i, j) == grade
            )
            assert quotient_dim == pair_count == expected
    _report(8, "path-algebra quotient dims match distance-pair counts through grade 4")


def test_criterion_9_nilpotency():
    for name, space in SUITE:
        algebra = DistanceAlgebra(space)
        assert radical_power_is_zero(algebra, len(space)), name
    _report(9, "positive-degree ideal is nilpotent of order |X| on every suite space")


def test_criterion_10_resolution_exactness():
    spots = 0
    for name, space in SUITE:
        for side in ("left", "right"):
            res = bar_resolution(space, side, 4, 4)
            for grade in attainable_grades(space, 4):
                h0 = resolution_homology(res, 0, grade)
                if grade == 0:
                    assert h0.betti == len(space) and not h0.torsion, name
                else:
                    assert h0.is_zero(), (name, side, grade)
                for n in (1, 2, 3):
                    assert resolution_homology(res, n, grade).is_zero(), (
                        name,
                        side,
                        n,
                        grade,
                    )
                    spots += 1
    _report(10, f"bar resolution exact in middle degrees and equals the quotient at 0 ({spots} spots)")
