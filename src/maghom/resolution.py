"""Truncated bar resolutions over the distance algebra; Tor and Ext.

The degree-n piece of the resolution is free on (n+2)-tuples of points with
all consecutive distances finite; the differential is the alternating sum of
single-point deletions that preserve the total grade (a deletion that drops
the grade contributes zero).  The right-sided version never deletes the last
entry, the left-sided version never deletes the first.

Each degree also carries a free-module decomposition: the generator for an
(n+1)-tuple a = (x_0..x_n) is the basis tuple with the kept end doubled, and
the differential written on generators has coefficients in the algebra.
Tensoring a right module against the left resolution and Hom-ing the right
resolution into a right module then reduce to finite integer matrices,
giving a computation of Tor and Ext independent of the chain-complex route.
Both are one module complex: the Hom coboundaries are read as the transposed
maps that the same builder assembles on the right resolution.
"""

from __future__ import annotations

from .errors import ResolutionTooShort, UnvalidatedModule
from .linalg import (
    HomologySummary,
    SparseMatrix,
    check_field,
    homology_at,
    rank_over_field,
)
from .space import QuasimetricSpace, parse_dist
from .chain import tuples_up_to_grade


class BarResolution:
    """Grade- and degree-truncated free resolution of the grade-0 quotient."""

    def __init__(self, space: QuasimetricSpace, side: str, n_max: int, l_max):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.space = space
        self.side = side
        self.n_max = n_max
        self.l_max = parse_dist(l_max)
        # one walk list per arity k = 0..n_max+1: (k+1)-tuples of total
        # grade <= l_max, their grades, index, and grade -> indices groups in
        # tuple order.  Degree n is free on the (n+1)-tuples (kept end
        # doubled) and has the (n+2)-tuples as its full basis, so generators
        # read arities 0..n_max and the basis reads 1..n_max+1.
        tuples, grades, index, self._groups = [], [], [], []
        for k in range(n_max + 2):
            pairs = tuples_up_to_grade(space, k, self.l_max, normalized=False)
            groups = {}
            for i, (_, g) in enumerate(pairs):
                groups.setdefault(g, []).append(i)
            tuples.append([t for t, _ in pairs])
            grades.append([g for _, g in pairs])
            index.append({t: i for i, (t, _) in enumerate(pairs)})
            self._groups.append(groups)
        self.gens, self.gen_grade, self.gen_index = tuples[:-1], grades[:-1], index[:-1]
        self.basis, self.basis_grade, self.basis_index = tuples[1:], grades[1:], index[1:]
        self._boundaries = {}
        self._grade_blocks = {}
        self._gen_terms = {}

    # -- full tuple-basis differential ------------------------------------

    def _deletion_drop(self, t, p):
        """Grade lost, in units of 1/D, when deleting position p from tuple t."""
        scaled = self.space.scaled
        last = len(t) - 1
        if p == 0:
            return scaled[t[0]][t[1]]
        if p == last:
            return scaled[t[last - 1]][t[last]]
        return scaled[t[p - 1]][t[p]] + scaled[t[p]][t[p + 1]] - scaled[t[p - 1]][t[p + 1]]

    def boundary(self, n: int) -> SparseMatrix:
        """Differential on the full tuple basis, degree n -> n-1."""
        if not 1 <= n <= self.n_max:
            raise ResolutionTooShort(f"degree {n} outside 1..{self.n_max}")
        if n in self._boundaries:
            return self._boundaries[n]
        src = self.basis[n]
        tgt_index = self.basis_index[n - 1]
        mat = SparseMatrix(len(self.basis[n - 1]), len(src))
        # face i deletes tuple position i (right side) / i+1 (left side)
        offset = 1 if self.side == "left" else 0
        for col, t in enumerate(src):
            for i in range(n + 1):
                p = i + offset
                if self._deletion_drop(t, p) == 0:
                    face = t[:p] + t[p + 1 :]
                    mat.add_at(tgt_index[face], col, -1 if i % 2 else 1)
        self._boundaries[n] = mat
        return mat

    def _basis_groups(self, n: int):
        """grade -> indices of the degree-n basis tuples of that grade."""
        if not 0 <= n <= self.n_max:
            raise ResolutionTooShort(f"degree {n} outside 0..{self.n_max}")
        return self._groups[n + 1]

    def degree_grades(self, n: int):
        return sorted(self._basis_groups(n))

    def basis_at_grade(self, n: int, grade):
        """Indices of degree-n basis tuples of exactly this grade (a fresh list)."""
        return list(self._basis_groups(n).get(parse_dist(grade), ()))

    def boundary_at_grade(self, n: int, grade) -> SparseMatrix:
        """Per-grade block of the differential (deletions preserve grade)."""
        grade = parse_dist(grade)
        key = (n, grade)
        if key in self._grade_blocks:
            return self._grade_blocks[key]
        full = self.boundary(n)
        src = self.basis_at_grade(n, grade)
        tgt = self.basis_at_grade(n - 1, grade)
        src_pos = {k: c for c, k in enumerate(src)}
        tgt_pos = {k: r for r, k in enumerate(tgt)}
        mat = SparseMatrix(len(tgt), len(src))
        for (r, c), v in full.entries.items():
            if c in src_pos and r in tgt_pos:
                mat.entries[(tgt_pos[r], src_pos[c])] = v
        self._grade_blocks[key] = mat
        return mat

    # -- free-generator differential ---------------------------------------

    def gen_boundary_terms(self, n: int):
        """Differential on free generators, one list of terms per generator.

        Each term is (sign, pair, target_gen_index): pair is None for a
        coefficient-1 term, or the algebra pair picked up by the deletion
        next to the kept end (acting on the module side after translation).
        """
        if not 1 <= n <= self.n_max:
            raise ResolutionTooShort(f"degree {n} outside 1..{self.n_max}")
        if n in self._gen_terms:
            return self._gen_terms[n]
        between = self.space.between_idx
        tgt = self.gen_index[n - 1]
        out = []
        for a in self.gens[n]:
            terms = []
            if self.side == "left":
                # generator (x_0; x_0..x_n): face 0 frees the pair (x_0, x_1)
                terms.append((1, (a[0], a[1]), tgt[a[1:]]))
                for i in range(1, n):
                    if between(a[i - 1], a[i], a[i + 1]):
                        terms.append((-1 if i % 2 else 1, None, tgt[a[:i] + a[i + 1 :]]))
                if a[n - 1] == a[n]:
                    terms.append((-1 if n % 2 else 1, None, tgt[a[:-1]]))
            else:
                # generator (x_0..x_n; x_n): face n frees the pair (x_{n-1}, x_n)
                if a[0] == a[1]:
                    terms.append((1, None, tgt[a[1:]]))
                for i in range(1, n):
                    if between(a[i - 1], a[i], a[i + 1]):
                        terms.append((-1 if i % 2 else 1, None, tgt[a[:i] + a[i + 1 :]]))
                terms.append((-1 if n % 2 else 1, (a[n - 1], a[n]), tgt[a[:-1]]))
            out.append(terms)
        self._gen_terms[n] = out
        return out

    def check_grade_fit(self, needed):
        """Largest tuple grade a query can touch must sit inside the truncation."""
        if needed > self.l_max:
            raise ResolutionTooShort(
                f"query needs tuple grades up to {needed} > l_max {self.l_max}"
            )


def bar_resolution(space: QuasimetricSpace, side: str, n_max: int, l_max) -> BarResolution:
    return BarResolution(space, side, n_max, l_max)


def resolution_homology(res: BarResolution, n: int, grade) -> HomologySummary:
    """Homology of the underlying graded complex of the resolution.

    Must vanish in degrees 1..n_max-1 and equal the grade-0 quotient at
    degree 0 (rank = number of points at grade 0, nothing elsewhere).
    """
    grade = parse_dist(grade)
    if not 0 <= n <= res.n_max - 1:
        raise ResolutionTooShort(f"exactness checkable only in degrees 0..{res.n_max - 1}")
    dim_n = len(res.basis_at_grade(n, grade))
    d_n = (
        res.boundary_at_grade(n, grade)
        if n >= 1
        else SparseMatrix(0, dim_n)
    )
    d_np1 = res.boundary_at_grade(n + 1, grade)
    return homology_at(d_n, d_np1, dim_n, n=n, grade=grade)


# ---------------------------------------------------------------------------
# The module complex over the bar resolution: Tor and Ext


def _components(res, module, k, grade):
    """(gen_index, h, rank) for every degree-k generator a whose module end
    carries a nonzero component of grade h, in generator order.

    A left resolution (Tor, M tensor P) meets the head M(a[0]) in grade
    h = grade - |a|, a right one (Ext, Hom(P, M)) the tail M(a[-1]) in grade
    h = |a| - grade.  Reads only the generator groups at those grades."""
    sign, end = (-1, 0) if res.side == "left" else (1, -1)
    groups = res._groups[k]
    gens = res.gens[k]
    found = []
    for h in module.grades():
        ranks = [module.rank_at(x, h) for x in range(len(module.space))]
        for gi in groups.get(grade + sign * h, ()):
            r = ranks[gens[gi][end]]
            if r:
                found.append((gi, h, r))
    found.sort()
    return found


def _module_basis(res, module, k, grade):
    """Basis (gen_index, j) of the module complex in one degree and grade."""
    return [(gi, j) for gi, _, r in _components(res, module, k, grade) for j in range(r)]


def _module_matrix(res, module, k, grade):
    """The module complex's map from degree k to k-1 at one grade.

    On a left resolution this is d_k of M tensor P; on a right one it is the
    transpose of Hom's coboundary delta_(k-1), which has the same rank over
    a field.  A freed pair moves the coefficient along M(pair): on the left
    forward out of the source generator's component, on the right back from
    the target generator's component through the transposed action."""
    left = res.side == "left"
    tgt = {}  # gen index -> (first row, component grade)
    rows = 0
    for ti, h, r in _components(res, module, k - 1, grade):
        tgt[ti] = (rows, h)
        rows += r
    src = _components(res, module, k, grade)
    terms = res.gen_boundary_terms(k)
    actions = {}
    mat = SparseMatrix(rows, sum(r for _, _, r in src))
    col = 0
    for gi, h, r in src:
        for j in range(r):
            for sign, pair, ti in terms[gi]:
                target = tgt.get(ti)
                if target is None:
                    continue
                first, th = target
                if pair is None:
                    mat.add_at(first + j, col, sign)
                    continue
                at = h if left else th
                action = actions.get((pair, at))
                if action is None:
                    action = actions[pair, at] = module.action_matrix(pair[0], pair[1], at)
                coeffs = [row[j] for row in action] if left else action[j]
                for i, v in enumerate(coeffs):
                    if v:
                        mat.add_at(first + i, col, sign * v)
            col += 1
    return mat


def _module_maps(space, module, n, grade, resolution, side):
    """(dim_n, d_n, d_(n+1)) of the module complex at bidegree (n, grade),
    on the given resolution or a default one on `side`; d_0 is zero."""
    if not module.validated:
        raise UnvalidatedModule("run validate_module first")
    # the deepest tuple grade a query touches: grade - h on the left, grade + h on the right
    sign = -1 if side == "left" else 1
    needed = grade + max((sign * h for h in module.grades()), default=0)
    if resolution is None:
        resolution = bar_resolution(space, side, n + 1, max(needed, 0))
    if resolution.side != side:
        functor = "Tor" if side == "left" else "Ext"
        raise ResolutionTooShort(f"{functor} needs a {side} resolution")
    if not 0 <= n < resolution.n_max:
        raise ResolutionTooShort(
            f"homological degree {n} outside 0..{resolution.n_max - 1} of the resolution"
        )
    resolution.check_grade_fit(needed)
    dim_n = len(_module_basis(resolution, module, n, grade))
    d_n = (
        _module_matrix(resolution, module, n, grade)
        if n >= 1
        else SparseMatrix(0, dim_n)
    )
    d_np1 = _module_matrix(resolution, module, n + 1, grade)
    return dim_n, d_n, d_np1


def tor_bidegree(space, module, n: int, grade, resolution: BarResolution | None = None) -> HomologySummary:
    """Tor of (module, grade-0 quotient) at bidegree (n, grade), over the integers.

    Tensors the module against the left bar resolution through the free
    decomposition; betti and torsion come from exact integer elimination.
    """
    grade = parse_dist(grade)
    dim_n, d_n, d_np1 = _module_maps(space, module, n, grade, resolution, "left")
    return homology_at(d_n, d_np1, dim_n, n=n, grade=grade)


def ext_bidegree(space, module, n: int, grade, fld, resolution: BarResolution | None = None) -> int:
    """dim over the field of Ext(grade-0 quotient, module) at bidegree (n, grade).

    Homs the right bar resolution into the module; the coboundaries are read
    as the transposed maps of the module complex, whose ranks they share.
    """
    check_field(fld)
    grade = parse_dist(grade)
    dim_n, d_n, d_np1 = _module_maps(space, module, n, grade, resolution, "right")
    return dim_n - rank_over_field(d_n, fld) - rank_over_field(d_np1, fld)
