"""Cohomology ring over a field: cocycle bases, cup product, Yoneda lifts.

The cup product splits a tuple at the arity of the front factor:
(psi . phi)(x_0..x_{n+m}) = psi(x_0..x_m) . phi(x_m..x_{n+m}), nonzero only
when both segments carry the factors' grades.  The same product is computed
a second way through the left bar resolution: a cocycle lifts to chain maps
between resolution degrees, and composing a lift with the other cocycle's
augmentation reproduces the cup product coefficient for coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chain import enumerate_tuples, magnitude_cochain_complex, tuple_grade
from .errors import NotACocycle, ResolutionTooShort, SpaceMismatch
from .linalg import (
    FieldColumnSpan,
    PrimeField,
    SparseMatrix,
    check_field,
    kernel_basis_over_field,
    solve_in_span,
    sparse_columns,
)
from .resolution import BarResolution, bar_resolution
from .space import QuasimetricSpace, parse_dist


@dataclass
class Cochain:
    """A finitely supported functional on normalized tuples of one bidegree."""

    space: QuasimetricSpace
    n: int
    grade: Fraction
    fld: object
    coeffs: dict  # point-index tuple -> field scalar

    def __post_init__(self):
        check_field(self.fld)
        self.grade = parse_dist(self.grade)
        clean = {}
        for t, v in self.coeffs.items():
            v = self.fld.of(v)
            if v == 0:
                continue
            if len(t) != self.n + 1:
                raise ValueError(f"support tuple {t} has wrong arity for degree {self.n}")
            if any(a == b for a, b in zip(t, t[1:])):
                raise ValueError(f"support tuple {t} is not normalized")
            if tuple_grade(self.space, t) != self.grade:
                raise ValueError(f"support tuple {t} has wrong grade")
            clean[t] = v
        self.coeffs = clean

    def value(self, t):
        return self.coeffs.get(tuple(t), self.fld.of(0))

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.space == other.space
            and (self.n, self.grade) == (other.n, other.grade)
            and self.fld == other.fld
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        labels = {
            tuple(self.space.points[i] for i in t): v for t, v in sorted(self.coeffs.items())
        }
        return f"Cochain(n={self.n}, grade={self.grade}, {labels})"


def cochain_from_vector(space, n, grade, fld, basis, vec) -> Cochain:
    coeffs = {t: v for t, v in zip(basis, vec)}
    return Cochain(space, n, grade, fld, coeffs)


def cochain_vector(c: Cochain, basis):
    return [c.value(t) for t in basis]


def coboundary_of(c: Cochain) -> Cochain:
    """delta of a cochain, computed against the dual basis matrices."""
    cx = magnitude_cochain_complex(c.space, c.grade, c.n, c.fld)
    basis_n = cx.bases[c.n]
    basis_np1 = cx.bases[c.n + 1]
    vec = cochain_vector(c, basis_n)
    mat = cx.coboundary(c.n)
    out = {}
    for (r, col), v in mat.entries.items():
        if vec[col] != 0:
            out[basis_np1[r]] = c.fld.of(out.get(basis_np1[r], 0) + v * vec[col])
    return Cochain(c.space, c.n + 1, c.grade, c.fld, out)


@dataclass
class CohomologyClassSet:
    """Basis of one cohomology bidegree, with explicit cocycle representatives."""

    space: QuasimetricSpace
    n: int
    grade: Fraction
    fld: object
    basis_tuples: list
    representatives: list  # list of Cochain
    coboundary_columns: list  # im delta_{n-1} as {row: value} dicts

    def dim(self):
        return len(self.representatives)


def cohomology_classes(space, n, grade, fld) -> CohomologyClassSet:
    """ker delta_n modulo im delta_{n-1}, with deterministic representatives.

    The kernel is put in reduced column-echelon form; representatives are
    the echelon vectors that remain independent after the coboundary image
    is spanned first, in order.
    """
    check_field(fld)
    grade = parse_dist(grade)
    cx = magnitude_cochain_complex(space, grade, n, fld)
    basis_n = cx.bases[n]
    kernel = kernel_basis_over_field(cx.coboundary(n), fld)
    cob_cols = sparse_columns(cx.coboundary(n - 1), fld) if n >= 1 else []
    span = FieldColumnSpan(len(basis_n), fld)
    for col in cob_cols:
        span.add(col)
    reps = []
    for vec in kernel:
        if span.add(vec):
            reps.append(cochain_from_vector(space, n, grade, fld, basis_n, vec))
    return CohomologyClassSet(
        space=space,
        n=n,
        grade=grade,
        fld=fld,
        basis_tuples=basis_n,
        representatives=reps,
        coboundary_columns=cob_cols,
    )


def cup(psi: Cochain, phi: Cochain) -> Cochain:
    """Front-back concatenation product; lands in bidegree (n+m, l+s)."""
    if psi.space != phi.space:
        raise SpaceMismatch("cup factors live over different spaces")
    if psi.fld != phi.fld:
        raise SpaceMismatch("cup factors use different fields")
    space, fld = psi.space, psi.fld
    out = {}
    for front, a in psi.coeffs.items():
        # segment grades are pinned by the support invariant; re-checked here
        if tuple_grade(space, front) != psi.grade:
            continue
        for back, b in phi.coeffs.items():
            if front[-1] != back[0]:
                continue
            if tuple_grade(space, back) != phi.grade:
                continue
            t = front + back[1:]
            c = fld.of(out.get(t, 0) + a * b)
            if c == 0:
                out.pop(t, None)
            else:
                out[t] = c
    return Cochain(space, psi.n + phi.n, psi.grade + phi.grade, fld, out)


def unit_cochain(space, fld) -> Cochain:
    """The two-sided unit: value 1 on every point."""
    return Cochain(space, 0, Fraction(0), fld, {(i,): 1 for i in range(len(space))})


@dataclass
class YonedaLift:
    """Chain-level lift of a cocycle: matrices P_{n+k} -> P_k per grade."""

    phi: Cochain
    k: int
    resolution: BarResolution
    matrices: dict  # source grade -> SparseMatrix


def yoneda_lift(resolution: BarResolution, phi: Cochain, k: int) -> YonedaLift:
    """Lift phi (degree n, grade l) to a map from resolution degree n+k to k.

    A basis tuple splits as front = first k+2 entries, back = last n+1;
    the image is phi(back) times the front tuple, which lives k+... one
    grade step l below the source.  A front tuple falling outside the
    truncation with nonzero coefficient is an error, never silently dropped.
    """
    if resolution.side != "left":
        raise ResolutionTooShort("lifts are built over the left resolution")
    n, l = phi.n, phi.grade
    if n + k > resolution.n_max:
        raise ResolutionTooShort(
            f"lift needs resolution degree {n + k} > n_max {resolution.n_max}"
        )
    matrices = {}
    fld = phi.fld
    for g in resolution.degree_grades(n + k):
        src = resolution.basis_at_grade(n + k, g)
        tgt = resolution.basis_at_grade(k, g - l)
        tgt_pos = {resolution.basis[k][i]: r for r, i in enumerate(tgt)}
        mat = SparseMatrix(len(tgt), len(src))
        for col, idx in enumerate(src):
            t = resolution.basis[n + k][idx]
            back = t[k + 1 :]
            val = phi.coeffs.get(back)
            if val is None:
                continue
            front = t[: k + 2]
            row = tgt_pos.get(front)
            if row is None:
                raise ResolutionTooShort(
                    f"lift image {front} leaves the truncated basis at grade {g - l}"
                )
            mat.add_at(row, col, val)
        matrices[g] = mat
    return YonedaLift(phi=phi, k=k, resolution=resolution, matrices=matrices)


def lift_square_commutes(lift_k: YonedaLift, lift_km1: YonedaLift) -> bool:
    """Exact matrix check of d_k . lift_k == lift_{k-1} . d_{n+k} per grade."""
    res = lift_k.resolution
    phi = lift_k.phi
    n, l = phi.n, phi.grade
    k = lift_k.k
    assert lift_km1.k == k - 1 and lift_km1.resolution is res
    p = phi.fld.p if isinstance(phi.fld, PrimeField) else None
    for g in res.degree_grades(n + k):
        left = _grade_matmul(res.boundary_at_grade(k, g - l), lift_k.matrices[g])
        right = _grade_matmul(lift_km1.matrices.get(g, SparseMatrix(0, 0)), res.boundary_at_grade(n + k, g))
        if p is not None:
            left, right = left.reduce_mod(p), right.reduce_mod(p)
        # compare as maps: grades with an empty side only ever carry zero
        if left.entries != right.entries:
            return False
    return True


def _grade_matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.cols != b.rows:
        # a truncated grade with no basis on one side: the composite is zero
        return SparseMatrix(a.rows, b.cols)
    return a.matmul(b)


def _assert_cocycle(c: Cochain):
    if not coboundary_of(c).is_zero():
        raise NotACocycle(f"cochain at ({c.n}, {c.grade}) has nonzero coboundary")


def yoneda_product(psi: Cochain, phi: Cochain, resolution: BarResolution | None = None) -> Cochain:
    """Composition product computed through resolution matrices.

    Lifts phi to degree n+m, applies psi's augmentation matrix, and reads
    the resulting cochain off the doubled-head generators.  Agrees with
    cup(psi, phi) coefficient for coefficient at chain level.
    """
    if psi.space != phi.space:
        raise SpaceMismatch("product factors live over different spaces")
    if psi.fld != phi.fld:
        raise SpaceMismatch("product factors use different fields")
    _assert_cocycle(psi)
    _assert_cocycle(phi)
    space, fld = psi.space, psi.fld
    m, s = psi.n, psi.grade
    n, l = phi.n, phi.grade
    total_grade = l + s
    if resolution is None:
        resolution = bar_resolution(space, "left", n + m, total_grade)
    if resolution.side != "left":
        raise ResolutionTooShort("the product uses the left resolution")
    if n + m > resolution.n_max or total_grade > resolution.l_max:
        raise ResolutionTooShort("resolution truncation too small for this product")
    lift = yoneda_lift(resolution, phi, m)
    lift_mat = lift.matrices.get(total_grade)
    if lift_mat is None:
        return Cochain(space, n + m, total_grade, fld, {})
    # augmentation matrix of psi: rows are points, columns P_m at grade s
    tgt_idx = resolution.basis_at_grade(m, s)
    aug = SparseMatrix(len(space), len(tgt_idx))
    for c, idx in enumerate(tgt_idx):
        t = resolution.basis[m][idx]
        if t[0] != t[1]:
            continue
        val = psi.coeffs.get(t[1:])
        if val is not None:
            aug.add_at(t[0], c, val)
    composite = aug.matmul(lift_mat)
    if isinstance(fld, PrimeField):
        composite = composite.reduce_mod(fld.p)
    # read off values on doubled-head generators of normalized tuples
    src = resolution.basis_at_grade(n + m, total_grade)
    col_of = {resolution.basis[n + m][idx]: c for c, idx in enumerate(src)}
    coeffs = {}
    for w in enumerate_tuples(space, n + m, total_grade, normalized=True):
        generator = (w[0],) + w
        c = col_of.get(generator)
        if c is None:
            raise ResolutionTooShort(f"generator {generator} missing from truncated basis")
        v = composite[(w[0], c)]
        if v:
            coeffs[w] = v
    return Cochain(space, n + m, total_grade, fld, coeffs)


@dataclass
class RingTable:
    """Structure constants of the cohomology ring within a bidegree box."""

    space: QuasimetricSpace
    fld: object
    n_max: int
    l_max: Fraction
    classes: dict  # (n, grade) -> CohomologyClassSet
    products: list  # (lhs=(n,grade,i), rhs=(m,grade,j), result=[(coeff, index), ...])


def ring_table(space, n_max: int, l_max, fld, grades=None) -> RingTable:
    """Products of all basis classes whose target stays inside the box.

    Each product is expanded in the representative basis of the target
    bidegree after reduction modulo coboundaries; coefficients are emitted
    as structure constants.
    """
    from .space import attainable_grades

    check_field(fld)
    l_max = parse_dist(l_max)
    if grades is None:
        grades = attainable_grades(space, l_max)
    classes = {}
    for g in grades:
        for n in range(n_max + 1):
            cs = cohomology_classes(space, n, g, fld)
            if cs.dim():
                classes[(n, g)] = cs
    products = []
    for (m, s), left_cs in sorted(classes.items()):
        for (n, l), right_cs in sorted(classes.items()):
            if m + n > n_max or s + l > l_max:
                continue
            target_key = (m + n, s + l)
            target = classes.get(target_key)
            if target is None:
                target = cohomology_classes(space, m + n, s + l, fld)
            coords = _class_coordinates_factory(target, fld)
            for i, psi in enumerate(left_cs.representatives):
                for j, phi in enumerate(right_cs.representatives):
                    prod = cup(psi, phi)
                    result = coords(prod)
                    products.append(
                        {
                            "lhs": (m, s, i),
                            "rhs": (n, l, j),
                            "result": [(v, k) for k, v in enumerate(result) if v != 0],
                        }
                    )
    return RingTable(
        space=space, fld=fld, n_max=n_max, l_max=l_max, classes=classes, products=products
    )


def _class_coordinates_factory(target: CohomologyClassSet, fld):
    """Expansion of a cocycle in a class basis, modulo coboundaries."""
    basis = target.basis_tuples
    rep_vecs = [cochain_vector(r, basis) for r in target.representatives]
    cob_cols = target.coboundary_columns

    def coords(cochain: Cochain):
        target_vec = cochain_vector(cochain, basis)
        columns = rep_vecs + cob_cols
        if not columns:
            if any(v != 0 for v in target_vec):
                raise NotACocycle("nonzero product in an empty bidegree")
            return []
        sol = solve_in_span(columns, target_vec, fld)
        if sol is None:
            raise NotACocycle("product is not a cocycle modulo coboundaries")
        return sol[: len(rep_vecs)]

    return coords
