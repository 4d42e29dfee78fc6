"""Cohomology ring over a field: cocycle bases, cup product, Yoneda lifts.

The cup product splits a tuple at the arity of the front factor:
(psi . phi)(x_0..x_{n+m}) = psi(x_0..x_m) . phi(x_m..x_{n+m}), nonzero only
when both segments carry the factors' grades.  The same product is computed
a second way through the left bar resolution: a cocycle lifts to A-linear
chain maps between resolution degrees, each kept as one image per free
generator, and composing a lift with the other cocycle, read on the
generators, reproduces the cup product coefficient for coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chain import magnitude_cochain_complex, tuple_grade
from .errors import NotACocycle, ResolutionTooShort, SpaceMismatch
from .linalg import (
    FieldColumnSpan,
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

    def __repr__(self):
        labels = {
            tuple(self.space.points[i] for i in t): v for t, v in sorted(self.coeffs.items())
        }
        return f"Cochain(n={self.n}, grade={self.grade}, {labels})"


def cochain_vector(c: Cochain, basis):
    return [c.value(t) for t in basis]


def coboundary_of(c: Cochain) -> Cochain:
    """delta of a cochain, computed against the dual basis matrices."""
    cx = magnitude_cochain_complex(c.space, c.grade, c.n, c.fld)
    col_of = {t: col for col, t in enumerate(cx.basis(c.n))}
    vec = {col_of[t]: v for t, v in c.coeffs.items()}
    basis_np1 = cx.basis(c.n + 1)
    out = {}
    for (r, col), v in cx.coboundary(c.n).entries.items():
        if col in vec:
            out[basis_np1[r]] = out.get(basis_np1[r], 0) + v * vec[col]
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


def cohomology_classes(space, n, grade, fld, cx=None) -> CohomologyClassSet:
    """ker delta_n modulo im delta_{n-1}, with deterministic representatives.

    The kernel is put in reduced column-echelon form; representatives are
    the echelon vectors that remain independent after the coboundary image
    is spanned first, in order.  cx is the grade's cochain complex through
    degree n or beyond, if one is built already (its int coboundaries serve
    every field); without it one is built.
    """
    check_field(fld)
    grade = parse_dist(grade)
    if cx is None:
        cx = magnitude_cochain_complex(space, grade, n, fld)
    elif cx.grade != grade or n > cx.n_max:
        raise ValueError(
            f"cochain complex at ({cx.n_max}, {cx.grade}) does not serve ({n}, {grade})"
        )
    basis_n = cx.basis(n)
    kernel = kernel_basis_over_field(cx.coboundary(n), fld)
    cob_cols = sparse_columns(cx.coboundary(n - 1), fld)
    span = FieldColumnSpan(fld)
    for col in cob_cols:
        span.add(col)
    reps = []
    for vec in kernel:
        if span.add(vec):
            reps.append(Cochain(space, n, grade, fld, {basis_n[i]: v for i, v in vec.items()}))
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
    space = psi.space
    # segment grades are pinned by the support invariant; re-checked here,
    # once per segment
    backs = {}
    for back, b in phi.coeffs.items():
        if tuple_grade(space, back) == phi.grade:
            backs.setdefault(back[0], []).append((back, b))
    # a product tuple splits into one (front, back) pair, so nothing is summed
    out = {}
    for front, a in psi.coeffs.items():
        if front[-1] in backs and tuple_grade(space, front) == psi.grade:
            for back, b in backs[front[-1]]:
                out[front + back[1:]] = a * b
    return Cochain(space, psi.n + phi.n, psi.grade + phi.grade, psi.fld, out)


def unit_cochain(space, fld) -> Cochain:
    """The two-sided unit: value 1 on every point."""
    return Cochain(space, 0, Fraction(0), fld, {(i,): 1 for i in range(len(space))})


@dataclass
class YonedaLift:
    """Chain-level lift of a cocycle, P_{n+k} -> P_k, on free generators."""

    phi: Cochain
    k: int
    resolution: BarResolution
    images: dict  # degree-(n+k) generator index -> (degree-k generator index, coefficient)


def yoneda_lift(resolution: BarResolution, phi: Cochain, k: int) -> YonedaLift:
    """Lift phi (degree n, grade l) to a map from resolution degree n+k to k.

    The lift is A-linear, so its images of the free generators fix it:
    generator a goes to phi(a[k:]) times generator a[:k+1], a prefix and
    so always inside the truncation.  On a basis tuple t this is phi(t[k+1:])
    times t[:k+2].  Generators where phi vanishes have no image.
    """
    if k < 0:
        raise ResolutionTooShort(f"lift degree {k} is negative")
    if resolution.side != "left":
        raise ResolutionTooShort("lifts are built over the left resolution")
    n = phi.n
    if n + k > resolution.n_max:
        raise ResolutionTooShort(
            f"lift needs resolution degree {n + k} > n_max {resolution.n_max}"
        )
    prefix = resolution.gen_index[k]
    images = {}
    for g, a in enumerate(resolution.gens[n + k]):
        val = phi.coeffs.get(a[k:])
        if val is not None:
            images[g] = (prefix[a[: k + 1]], val)
    return YonedaLift(phi=phi, k=k, resolution=resolution, images=images)


def lift_square_commutes(lift_k: YonedaLift, lift_km1: YonedaLift) -> bool:
    """Exact check of d_k . lift_k == lift_{k-1} . d_{n+k}, generator by generator.

    Both sides are A-linear, so they agree when they agree on the degree-(n+k)
    generators.  Every differential term keeps its generator's first point,
    so each side's image is a {degree-(k-1) generator: coefficient} dict.
    """
    res = lift_k.resolution
    phi, fld = lift_k.phi, lift_k.phi.fld
    n, k = phi.n, lift_k.k
    if lift_km1.k != k - 1 or lift_km1.resolution is not res:
        raise ValueError("lift_km1 must be the lift one degree lower, on the same resolution")
    if lift_km1.phi != phi:
        raise ValueError("lift_k and lift_km1 lift different cocycles")
    d_k, d_nk = res.gen_boundary_terms(k), res.gen_boundary_terms(n + k)

    def add(image, target, c, val):
        image[target] = image.get(target, 0) + (-val if c & 2 else val)

    def reduced(image):
        return {t: r for t, v in image.items() if (r := fld.of(v))}

    for g in range(len(res.gens[n + k])):
        left, right = {}, {}
        if g in lift_k.images:
            b, val = lift_k.images[g]
            for c in d_k[b]:
                add(left, c >> 2, c, val)
        for c in d_nk[g]:
            if c >> 2 in lift_km1.images:
                b, val = lift_km1.images[c >> 2]
                add(right, b, c, val)
        if reduced(left) != reduced(right):
            return False
    return True


def _assert_cocycle(c: Cochain):
    if not coboundary_of(c).is_zero():
        raise NotACocycle(f"cochain at ({c.n}, {c.grade}) has nonzero coboundary")


def yoneda_product(psi: Cochain, phi: Cochain, resolution: BarResolution | None = None) -> Cochain:
    """Composition product computed through the lift on free generators.

    Lifts phi to degree n+m and composes it with psi, read as the map
    P_m -> S that sends generator b to psi(b): generator w of degree n+m
    gets psi(w[:m+1]) . phi(w[m:]).  Agrees with cup(psi, phi) coefficient
    for coefficient at chain level.
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
    elif resolution.space is not space and resolution.space != space:
        raise SpaceMismatch("resolution lives over a different space")
    if resolution.side != "left":
        raise ResolutionTooShort("the product uses the left resolution")
    if n + m > resolution.n_max or total_grade > resolution.l_max:
        raise ResolutionTooShort("resolution truncation too small for this product")
    lift = yoneda_lift(resolution, phi, m)
    sources, targets = resolution.gens[n + m], resolution.gens[m]
    # a nonzero value needs both segments normalized at their grades, so the
    # support is normalized at the total grade; Cochain drops the zeros
    coeffs = {sources[g]: c * psi.value(targets[b]) for g, (b, c) in lift.images.items()}
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


def ring_table(space, n_max: int, l_max, fld) -> RingTable:
    """Products of all basis classes whose target stays inside the box.

    Each grade's cochain complex is built once and shared by its degrees.
    cup(psi, phi) joins a front ending where a back starts, so a pair is
    cupped only when some last point of psi is a first point of phi, and
    every other pair has the empty result.  The products of all blocks that
    share a target bidegree are expanded in its representative basis, modulo
    coboundaries, against one span.
    """
    from .space import attainable_grades

    check_field(fld)
    l_max = parse_dist(l_max)
    grades = attainable_grades(space, l_max)
    complexes = {g: magnitude_cochain_complex(space, g, n_max, fld) for g in grades}
    built = {
        (n, g): cohomology_classes(space, n, g, fld, cx=complexes[g])
        for g in grades
        for n in range(n_max + 1)
    }
    classes = {key: cs for key, cs in built.items() if cs.dim()}
    ends = {
        key: [({t[0] for t in r.coeffs}, {t[-1] for t in r.coeffs}) for r in cs.representatives]
        for key, cs in classes.items()
    }
    products, found = [], {}  # found: target -> [(product index, nonzero cochain)]
    for (m, s), left_cs in sorted(classes.items()):
        for (n, l), right_cs in sorted(classes.items()):
            if m + n > n_max or s + l > l_max:
                continue
            for i, (_, lasts) in enumerate(ends[m, s]):
                for j, (firsts, _) in enumerate(ends[n, l]):
                    if not lasts.isdisjoint(firsts):
                        prod = cup(left_cs.representatives[i], right_cs.representatives[j])
                        found.setdefault((m + n, s + l), []).append((len(products), prod))
                    products.append({"lhs": (m, s, i), "rhs": (n, l, j), "result": []})
    # a cupped pair has a last point of psi equal to a first point of phi, so
    # its product is never zero (its tuples are distinct and normalized); a
    # nonzero product's support walks at its grade, so built[key] exists
    for key, pending in found.items():
        coords = _class_coordinates(built[key], [c for _, c in pending], fld)
        for (k, _), result in zip(pending, coords):
            products[k]["result"] = [(v, c) for c, v in sorted(result.items())]
    return RingTable(
        space=space, fld=fld, n_max=n_max, l_max=l_max, classes=classes, products=products
    )


def _class_coordinates(target: CohomologyClassSet, cochains, fld):
    """Expansions of cocycles in a class basis, modulo coboundaries.

    Each cochain's support maps straight to target rows; all of them are
    reduced against one span of [representatives | coboundary columns], and
    each expansion is a sparse {class index: coefficient} dict.
    """
    if not target.representatives and not target.coboundary_columns:
        if any(not c.is_zero() for c in cochains):
            raise NotACocycle("nonzero product in an empty bidegree")
        return [{} for _ in cochains]
    row_of = {t: r for r, t in enumerate(target.basis_tuples)}

    def rows(c: Cochain):
        for t in c.coeffs:
            if t not in row_of:
                raise NotACocycle(f"support tuple {t} is outside the target basis")
        return {row_of[t]: v for t, v in c.coeffs.items()}

    reps = [rows(r) for r in target.representatives]
    solutions = solve_in_span(reps + target.coboundary_columns, [rows(c) for c in cochains], fld)
    if any(sol is None for sol in solutions):
        raise NotACocycle("product is not a cocycle modulo coboundaries")
    return [{j: v for j, v in sol.items() if j < len(reps)} for sol in solutions]
