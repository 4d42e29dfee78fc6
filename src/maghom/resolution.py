"""Truncated bar resolutions over the distance algebra; Tor and Ext.

The degree-n piece of the resolution is free on (n+2)-tuples of points with
all consecutive distances finite; the differential is the alternating sum of
single-point deletions that preserve the total grade (a deletion that drops
the grade contributes zero).  The right-sided version never deletes the last
entry, the left-sided version never deletes the first.

The differential is kept once, on the free generators: the generator for
an (n+1)-tuple a = (x_0..x_n) is the basis tuple with the kept end doubled,
and its terms have coefficients in the algebra.  The generator lengths are
walked when a resolution is built, grouped by grade in integer units of
1/D; the one longer length that only the full basis of the top degree holds
is walked when `basis` is first read.  Tensoring a right module against the
left resolution and Hom-ing the right resolution into a right module then
reduce to finite integer matrices, giving a computation of Tor and Ext
independent of the chain-complex route.  Both are one module complex: the
Hom coboundaries are read as the transposed maps that the same builder
assembles on the right resolution.  The exactness check reads the same
complex for one module per side whose complex is the resolution itself
(A tensor_A P = P), so one differential serves Tor, Ext and exactness.
The tuples are unnormalized, but a run of equal points cancels to at most
one term, so the builder writes each entry once, reading only stored
actions and the int term lists of its bases' generators.  Every complex
holds only its bases and maps, never the resolution, so a resolution dies
with its caller.
"""

from __future__ import annotations

from .chain import BasedComplex, _walks
from .distmod import DistanceModule
from .errors import InvalidInput, ResolutionTooShort, SpaceMismatch, UnvalidatedModule
from .linalg import HomologySummary, SparseMatrix, check_field
from .space import INF, QuasimetricSpace, parse_dist


class BarResolution:
    """Grade- and degree-truncated free resolution of the grade-0 quotient."""

    def __init__(self, space: QuasimetricSpace, side: str, n_max: int, l_max):
        if side not in ("left", "right") or n_max < 0:
            raise ValueError(f"side must be 'left' or 'right' and n_max >= 0: {side!r}, {n_max}")
        self.space = space
        self.side = side
        self.n_max = n_max
        self.l_max = parse_dist(l_max)
        if self.l_max is INF:
            raise InvalidInput("l_max must be finite")
        self._cap = space.floor_units(self.l_max)
        # Degree n is free on the (n+1)-tuples (kept end doubled) and has the
        # (n+2)-tuples as its full basis.  The generators, lengths 0..n_max,
        # are all that Tor and Ext read, so only they are walked here, each
        # with its units -> indices groups in tuple order; the top length
        # n_max+1 is walked on the first read of the full basis.
        lengths = [self._length(k) for k in range(n_max + 1)]
        self.gens = [tuples for tuples, _ in lengths]
        self._groups = [groups for _, groups in lengths]
        self._top = None
        self.gen_index = [{t: i for i, t in enumerate(ts)} for ts in self.gens]
        self._gen_terms = [[None] * len(ts) for ts in self.gens]
        self._module_complex = None  # (module, grade, complex) of the last query
        self._exactness = None  # the exactness module, built by the first check

    def _length(self, k: int):
        """The (k+1)-tuples of grade <= l_max in lexicographic order, and
        their grade groups: units of 1/D -> indices."""
        pairs = _walks(self.space, k, self._cap, normalized=False)
        groups = {}
        for i, (_, u) in enumerate(pairs):
            groups.setdefault(u, []).append(i)
        return [t for t, _ in pairs], groups

    @property
    def basis(self):
        """Full tuple basis per degree 0..n_max: degree n's list is the
        degree-(n+1) generator list, and the top one is walked on first read."""
        if self._top is None:
            top = _walks(self.space, self.n_max + 1, self._cap, normalized=False)
            self._top = [t for t, _ in top]
        return self.gens[1:] + [self._top]

    def _check_degree(self, n: int, low: int):
        if not low <= n <= self.n_max:
            raise ResolutionTooShort(f"degree {n} outside {low}..{self.n_max}")

    def gen_boundary_terms(self, n: int, which=None):
        """Differential on free generators, one term list per generator, built
        and kept for the indices in `which` (all when None; None marks a list
        not built yet).  A term is the int target_gen_index << 2 | odd << 1 |
        frees: odd gives the sign -1, frees the algebra pair freed next to
        the kept end (the first two points of a left generator, the last two
        of a right one).  Deleting any point of a run of equal points is a
        term (a pair (x, x) is the identity) onto one face, with alternating
        signs: an even run cancels, an odd one keeps its first point.
        Deletions outside a common run give distinct faces.
        """
        self._check_degree(n, 1)
        gens, out = self.gens[n], self._gen_terms[n]
        left = self.side == "left"
        middles = self.space.middles
        tgt = self.gen_index[n - 1]
        for g in range(len(gens)) if which is None else which:
            if out[g] is not None:
                continue
            a = gens[g]
            terms = []
            i = 0
            while i <= n:
                x = a[i]
                j = i + 1
                while j <= n and a[j] == x:
                    j += 1
                if j - i > 1:
                    if (j - i) % 2:
                        terms.append(tgt[a[:i] + a[i + 1 :]] << 2 | (i & 1) << 1)
                elif 0 < i < n:
                    if x in middles[a[i - 1]][a[j]]:
                        terms.append(tgt[a[:i] + a[j:]] << 2 | (i & 1) << 1)
                # face 0 of a left generator frees (x_0, x_1), face n of a right one (x_n-1, x_n)
                elif left and i == 0:
                    terms.append(tgt[a[1:]] << 2 | 1)
                elif not left and i == n:
                    terms.append(tgt[a[:-1]] << 2 | (n & 1) << 1 | 1)
                i = j
            out[g] = terms
        return out

    def check_grade_fit(self, needed):
        """Largest tuple grade a query can touch must sit inside the truncation."""
        if needed > self.l_max:
            raise ResolutionTooShort(
                f"query needs tuple grades up to {needed} > l_max {self.l_max}"
            )


def bar_resolution(space: QuasimetricSpace, side: str, n_max: int, l_max) -> BarResolution:
    return BarResolution(space, side, n_max, l_max)


def _exactness_module(space: QuasimetricSpace, side: str) -> DistanceModule:
    """The module E whose complex over a `side` resolution is the
    resolution's own tuple complex at each total grade.

    Left: E(y) holds e_x at grade d(x, y) for each x reaching y (the sum of
    the representable rows), met at a generator's head as the tuple
    (x,) + a.  Right: E(y) holds e_z at grade -d(y, z) for each z that y
    reaches; Hom(P, E) is the dual of the tuple complex on the a + (z,),
    which the transposes read back.  The pair (y, w) keeps e_p where E(w)
    holds it at the shifted grade (betweenness) and kills it elsewhere; the
    module is valid by construction, and DistanceModule drops its zero maps."""
    left = side == "left"
    groups = [{} for _ in space.points]  # per point: {grade: the points p of its e_p}
    for a, b in space.finite_pairs():
        y, p, h = (b, a, space.d(a, b)) if left else (a, b, -space.d(a, b))
        groups[y].setdefault(h, []).append(p)
    actions = {}
    for y, w in space.finite_pairs():
        if y != w:
            d = space.d(y, w)
            actions[y, w] = {
                h: [[int(p == q) for p in ps] for q in groups[w].get(h + d, ())]
                for h, ps in groups[y].items()
            }
    components = {y: {h: len(ps) for h, ps in by_grade.items()} for y, by_grade in enumerate(groups)}
    return DistanceModule(space, components, actions, validated=True)


def resolution_homology(res: BarResolution, n: int, grade) -> HomologySummary:
    """Homology of the resolution's underlying complex at one total grade,
    read as the module complex of its exactness module (A tensor_A P = P).

    Must vanish in degrees 1..n_max-1 and equal the grade-0 quotient at
    degree 0 (rank = number of points at grade 0, nothing elsewhere).  A
    degree outside 0..n_max-1 or a grade above l_max (infinite included)
    raises ResolutionTooShort.  The module is built once per resolution, so
    the degrees of one grade share its cached complex.
    """
    if res._exactness is None:
        res._exactness = _exactness_module(res.space, res.side)
    return _module_complex(res.space, res._exactness, n, parse_dist(grade), res, res.side).homology(n)


# ---------------------------------------------------------------------------
# The module complex over the bar resolution: Tor and Ext


def _components(res, module, k, grade):
    """Basis (gen_index, h, j) of the module complex in degree k at one
    grade: the j-th basis vector of every degree-k generator a's module end
    in grade h, in generator order.

    A left resolution (Tor, M tensor P) meets the head M(a[0]) in grade
    h = grade - |a|, a right one (Ext, Hom(P, M)) the tail M(a[-1]) in grade
    h = |a| - grade.  Reads only the generator groups at those grades."""
    sign, end = (-1, 0) if res.side == "left" else (1, -1)
    groups = res._groups[k]
    gens = res.gens[k]
    to_units = res.space.to_units
    found = []
    for h in module.grades():
        ranks = [module.rank_at(x, h) for x in range(len(module.space))]
        for gi in groups.get(to_units(grade + sign * h), ()):
            for j in range(ranks[gens[gi][end]]):
                found.append((gi, h, j))
    found.sort()
    return found


def _module_matrix(res, module, k, src, tgt):
    """The module complex's map from degree k to k-1, on its degree-k and
    degree-(k-1) bases at one grade.

    On a left resolution this is d_k of M tensor P; on a right one it is the
    transpose of Hom's coboundary delta_(k-1), which has the same rank over
    a field.  A freed pair moves the coefficient along M(pair): on the left
    forward out of the source generator's component, on the right back from
    the target generator's component through the transposed action.

    Each entry is written once, in term order: a generator's terms have
    distinct targets, which own disjoint rows.  Only the source generators'
    term lists are built.  A pair with no stored action is zero and builds
    no matrix; a stored action's column j is read once per (pair, grade, j)."""
    left = res.side == "left"
    first = {ti: (row, h) for row, (ti, h, j) in enumerate(tgt) if j == 0}
    terms = res.gen_boundary_terms(k, {gi for gi, _, _ in src})
    gens = res.gens[k]
    stored = module.actions
    columns = {}
    mat = SparseMatrix(len(tgt), len(src))
    entries = mat.entries
    for col, (gi, h, j) in enumerate(src):
        for c in terms[gi]:
            target = first.get(c >> 2)
            if target is None:
                continue
            row, th = target
            if not c & 1:
                entries[row + j, col] = -1 if c & 2 else 1
                continue
            pair = gens[gi][:2] if left else gens[gi][-2:]
            per_grade = stored.get(pair)
            if per_grade is None:
                continue
            at = h if left else th
            column = columns.get((pair, at, j))
            if column is None:
                action = per_grade.get(at)
                if action is None:
                    continue
                coeffs = [r[j] for r in action] if left else action[j]
                column = columns[pair, at, j] = [(i, v) for i, v in enumerate(coeffs) if v]
            for i, v in column:
                entries[row + i, col] = -v if c & 2 else v
    return mat


def _module_complex(space, module, n, grade, resolution, side) -> BasedComplex:
    """The module complex at one grade over the given resolution, or a
    default one on `side`, checked to lie over the space and to reach
    homological degree n; every check runs before a resolution is built.

    A given resolution keeps the last complex it built, for that module
    object and grade, so the degrees of one grade share its maps and their
    eliminations; a default one keeps none.
    The checks run on every call."""
    if module.space is not space and module.space != space:
        raise UnvalidatedModule("module lives over a different space")
    if not module.validated:
        raise UnvalidatedModule("run validate_module first")
    # the deepest tuple grade a query touches: grade - h on the left, grade + h on the right
    sign = -1 if side == "left" else 1
    needed = grade + max((sign * h for h in module.grades()), default=0)
    if resolution is None:
        if n < 0:
            raise ResolutionTooShort(f"homological degree {n} is negative")
        # no tuple has an infinite grade: any truncation reads that complex as zero
        res = bar_resolution(space, side, n + 1, 0 if needed is INF else max(needed, 0))
    else:
        if resolution.space is not space and resolution.space != space:
            raise SpaceMismatch("resolution lives over a different space")
        resolution.check_grade_fit(needed)
        if resolution.side != side:
            functor = "Tor" if side == "left" else "Ext"
            raise ResolutionTooShort(f"{functor} needs a {side} resolution")
        if not 0 <= n < resolution.n_max:
            raise ResolutionTooShort(
                f"homological degree {n} outside 0..{resolution.n_max - 1} of the resolution"
            )
        cached = resolution._module_complex
        if cached is not None and cached[0] is module and cached[1] == grade:
            return cached[2]
        res = resolution
    cx = BasedComplex(
        res.n_max - 1,
        lambda k: _components(res, module, k, grade),
        lambda k, src, tgt: _module_matrix(res, module, k, src, tgt),
        grade=grade,
    )
    if resolution is not None:
        resolution._module_complex = (module, grade, cx)
    return cx


def tor_bidegree(space, module, n: int, grade, resolution: BarResolution | None = None) -> HomologySummary:
    """Tor of (module, grade-0 quotient) at bidegree (n, grade), over the integers.

    Tensors the module against the left bar resolution through the free
    decomposition; betti and torsion come from exact integer elimination.
    """
    grade = parse_dist(grade)
    return _module_complex(space, module, n, grade, resolution, "left").homology(n)


def ext_bidegree(space, module, n: int, grade, fld, resolution: BarResolution | None = None) -> int:
    """dim over the field of Ext(grade-0 quotient, module) at bidegree (n, grade).

    Homs the right bar resolution into the module; the coboundaries are read
    as the transposed maps of the module complex, whose ranks they share.
    """
    check_field(fld)
    grade = parse_dist(grade)
    return _module_complex(space, module, n, grade, resolution, "right").homology_dim_over(n, fld)
