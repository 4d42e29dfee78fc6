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
"""

from __future__ import annotations

from .errors import ResolutionTooShort, UnvalidatedModule
from .linalg import (
    HomologySummary,
    PrimeField,
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

    def degree_grades(self, n: int):
        return sorted(self._groups[n + 1])

    def basis_at_grade(self, n: int, grade):
        """Indices of degree-n basis tuples of exactly this grade (a fresh list)."""
        return list(self._groups[n + 1].get(parse_dist(grade), ()))

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
# Module components met by the free generators (Tor and Ext)


def _components(res, module, k, grade, sign, end):
    """(gen_index, h, rank) for every degree-k generator a of grade
    grade + sign*h whose end point a[end] carries a nonzero M(a[end])_h.

    Tor (sign -1, end 0) meets the head component in grade (grade - |a|),
    Ext (sign 1, end -1) the tail component in grade (|a| - grade).  Reads
    only the generator groups at those grades; in generator order."""
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


def _action_memo(module):
    """module.action_matrix by (pair, grade), each computed once per use."""
    cache = {}

    def action_along(pair, grade):
        action = cache.get((pair, grade))
        if action is None:
            action = cache[pair, grade] = module.action_matrix(pair[0], pair[1], grade)
        return action

    return action_along


# ---------------------------------------------------------------------------
# Tor via the left resolution


def _tor_space(res, module, k, grade):
    """Basis of (module tensor resolution) in one degree and grade.

    Entries are (gen_index, j): generator a with head x_0 contributes the
    component M(x_0) in grade (grade - |a|)."""
    return [(gi, j) for gi, _, r in _components(res, module, k, grade, -1, 0) for j in range(r)]


def _tor_matrix(res, module, k, grade):
    """Differential of the tensored complex, degree k -> k-1, one grade."""
    src = _components(res, module, k, grade, -1, 0)
    tgt = _tor_space(res, module, k - 1, grade)
    tgt_pos = {lab: r for r, lab in enumerate(tgt)}
    terms = res.gen_boundary_terms(k)
    mat = SparseMatrix(len(tgt), sum(r for _, _, r in src))
    action_along = _action_memo(module)
    col = 0
    for gi, comp_grade, r in src:
        for j in range(r):
            for sign, pair, ti in terms[gi]:
                if pair is None:
                    key = (ti, j)
                    if key in tgt_pos:
                        mat.add_at(tgt_pos[key], col, sign)
                else:
                    action = action_along(pair, comp_grade)
                    for i_row, row in enumerate(action):
                        if row[j]:
                            key = (ti, i_row)
                            if key in tgt_pos:
                                mat.add_at(tgt_pos[key], col, sign * row[j])
            col += 1
    return mat


def tor_bidegree(space, module, n: int, grade, resolution: BarResolution | None = None) -> HomologySummary:
    """Tor of (module, grade-0 quotient) at bidegree (n, grade), over the integers.

    Tensors the module against the left bar resolution through the free
    decomposition; betti and torsion come from exact integer elimination.
    """
    grade = parse_dist(grade)
    if not module.validated:
        raise UnvalidatedModule("run validate_module first")
    # components sit at grade - |a|: the deepest tuple grade a query touches
    mod_grades = module.grades()
    needed = grade - min(mod_grades) if mod_grades else grade
    if resolution is None:
        resolution = bar_resolution(space, "left", n + 1, max(needed, 0))
    if resolution.side != "left":
        raise ResolutionTooShort("Tor needs a left resolution")
    if n + 1 > resolution.n_max:
        raise ResolutionTooShort(
            f"homological degree {n} needs resolution degree {n + 1} > n_max {resolution.n_max}"
        )
    resolution.check_grade_fit(needed)
    dim_n = len(_tor_space(resolution, module, n, grade))
    d_n = (
        _tor_matrix(resolution, module, n, grade)
        if n >= 1
        else SparseMatrix(0, dim_n)
    )
    d_np1 = _tor_matrix(resolution, module, n + 1, grade)
    return homology_at(d_n, d_np1, dim_n, n=n, grade=grade)


# ---------------------------------------------------------------------------
# Ext via the right resolution


def _ext_space(res, module, k, grade):
    """Basis of Hom(resolution, module) in one degree and internal grade.

    Entries are (gen_index, j): generator a with tail x_n contributes the
    component M(x_n) in grade (|a| - grade)."""
    return [(gi, j) for gi, _, r in _components(res, module, k, grade, 1, -1) for j in range(r)]


def _ext_matrix(res, module, k, grade, fld):
    """Coboundary of the Hom complex, degree k -> k+1, one internal grade."""
    src = _components(res, module, k, grade, 1, -1)
    tgt = _ext_space(res, module, k + 1, grade)
    src_pos = {}
    src_grade = {}
    for gi, h, r in src:
        src_grade[gi] = h
        for j in range(r):
            src_pos[(gi, j)] = len(src_pos)
    terms = res.gen_boundary_terms(k + 1)
    action_along = _action_memo(module)
    mat = SparseMatrix(len(tgt), len(src_pos))
    for row_i, (bi, j) in enumerate(tgt):
        for sign, pair, ai in terms[bi]:
            if pair is None:
                key = (ai, j)
                if key in src_pos:
                    mat.add_at(row_i, src_pos[key], sign)
            elif ai in src_grade:
                # phi(g_b) picks up phi(g_a) pushed along the freed pair
                action = action_along(pair, src_grade[ai])
                if j < len(action):
                    row = action[j]
                    for c, v in enumerate(row):
                        if v:
                            key = (ai, c)
                            if key in src_pos:
                                mat.add_at(row_i, src_pos[key], sign * v)
    if isinstance(fld, PrimeField):
        mat = mat.reduce_mod(fld.p)
    return mat


def ext_bidegree(space, module, n: int, grade, fld, resolution: BarResolution | None = None) -> int:
    """dim over the field of Ext(grade-0 quotient, module) at bidegree (n, grade)."""
    check_field(fld)
    grade = parse_dist(grade)
    if not module.validated:
        raise UnvalidatedModule("run validate_module first")
    # components sit at |a| - grade: the deepest tuple grade a query touches
    mod_grades = module.grades()
    needed = max(mod_grades) + grade if mod_grades else grade
    if resolution is None:
        resolution = bar_resolution(space, "right", n + 1, max(needed, 0))
    if resolution.side != "right":
        raise ResolutionTooShort("Ext needs a right resolution")
    if n + 1 > resolution.n_max:
        raise ResolutionTooShort(
            f"homological degree {n} needs resolution degree {n + 1} > n_max {resolution.n_max}"
        )
    resolution.check_grade_fit(needed)
    dim_n = len(_ext_space(resolution, module, n, grade))
    delta_n = _ext_matrix(resolution, module, n, grade, fld)
    if n >= 1:
        delta_prev = _ext_matrix(resolution, module, n - 1, grade, fld)
    else:
        delta_prev = SparseMatrix(dim_n, 0)
    return dim_n - rank_over_field(delta_n, fld) - rank_over_field(delta_prev, fld)
