"""Distance modules: graded free modules indexed by points, with action maps.

A module assigns each point x a finitely supported family of free pieces
M(x)_g (g an exact rational), and each finite-distance pair (x, y) an
integer matrix M(x)_g -> M(y)_{g + d(x,y)} per grade.  The two axioms are
M(x,x) = id and the betweenness composition law: M(y,z) M(x,y) equals
M(x,z) when d(x,y) + d(y,z) = d(x,z) and the zero map otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import InvalidInput, UnknownPoint, UnvalidatedModule
from .linalg import QQ, SparseMatrix, integer_kernel_basis, rank_over_field, snf
from .space import INF, QuasimetricSpace, format_dist, parse_dist


def _zeros(rows, cols):
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def _finite_grade(g):
    g = parse_dist(g)
    if g is INF:
        raise InvalidInput("module grades must be finite")
    return g


def _integer(v, where):
    """v as an int; a bool, a float, a string or a non-integral value raises InvalidInput."""
    if isinstance(v, bool) or not isinstance(v, Rational) or v.denominator != 1:
        raise InvalidInput(f"{where} must be an integer, not {v!r}")
    return int(v)


def _is_zero_mat(a):
    return all(v == 0 for row in a for v in row)


def _nonzero_entries(a):
    """Semantic view of a matrix: zero-padded shapes compare equal."""
    return {(i, j): v for i, row in enumerate(a) for j, v in enumerate(row) if v}


class DistanceModule:
    """Components and action matrices over a fixed space.

    components: per point index, {grade: rank} with zero ranks omitted.
    actions: {(i, j): {grade: matrix}} for i != j with finite d(i, j); a
    missing entry is the zero map.  Matrices are tuples of tuples of ints,
    shaped rank(j, g + d) x rank(i, g).  A rank or an entry that is not an
    integer, or a negative rank, raises InvalidInput naming its point or pair.
    """

    __slots__ = ("space", "components", "actions", "validated")

    def __init__(self, space: QuasimetricSpace, components, actions, validated=False):
        self.space = space
        comps = []
        for i in range(len(space)):
            raw = components.get(i, {}) if isinstance(components, dict) else components[i]
            where = f"rank at point {space.points[i]!r}"
            ranks = {g: _integer(r, where) for g, r in raw.items()}
            if any(r < 0 for r in ranks.values()):
                raise InvalidInput(f"negative {where}")
            comps.append({_finite_grade(g): r for g, r in ranks.items() if r})
        self.components = tuple(comps)
        acts = {}
        for (i, j), per_grade in actions.items():
            where = f"action entry {space.points[i]!r}->{space.points[j]!r}"
            kept = {}
            for g, mat in per_grade.items():
                mat = tuple(tuple(_integer(v, where) for v in row) for row in mat)
                if not _is_zero_mat(mat):
                    kept[_finite_grade(g)] = mat
            if kept:
                acts[(i, j)] = kept
        self.actions = acts
        self.validated = validated

    def rank_at(self, i: int, grade) -> int:
        return self.components[i].get(grade, 0)

    def grades(self):
        out = set()
        for comp in self.components:
            out.update(comp)
        return sorted(out)

    def action_matrix(self, i: int, j: int, grade):
        """Matrix of M(i)_grade -> M(j)_{grade + d(i,j)}; identity when i == j."""
        src = self.rank_at(i, grade)
        if i == j:
            return _identity(src)
        d = self.space.d(i, j)
        if d is INF:
            raise UnknownPoint(f"no action for unreachable pair ({i}, {j})")
        dst = self.rank_at(j, grade + d)
        stored = self.actions.get((i, j), {}).get(grade)
        if stored is None:
            return _zeros(dst, src)
        return stored

    def total_rank(self, grade) -> int:
        return sum(self.rank_at(i, grade) for i in range(len(self.space)))

    def __eq__(self, other):
        return (
            isinstance(other, DistanceModule)
            and self.space == other.space
            and self.components == other.components
            and self.actions == other.actions
        )

    def __repr__(self):
        comps = {self.space.points[i]: dict(c) for i, c in enumerate(self.components) if c}
        return f"DistanceModule({comps})"


@dataclass(frozen=True)
class ModuleViolation:
    kind: str  # ShapeMismatch | IdentityViolation | CompositionViolation
    witness: tuple  # point labels, then a grade
    detail: str

    def witness_text(self) -> str:
        """The witness with its grade as an exact string: (a, b, 3/2)."""
        labels = (w if isinstance(w, str) else format_dist(w) for w in self.witness)
        return "(" + ", ".join(labels) + ")"

    def __str__(self):
        return f"{self.kind}{self.witness_text()}: {self.detail}"


def validate_module(space: QuasimetricSpace, module: DistanceModule):
    """Check shapes, identities, and the composition law over all triples.

    Returns the list of violations (empty means valid); a clean module is
    marked validated so downstream constructions accept it.

    The composition law is compared only where a side can be nonzero, so
    the skip is exact and keeps the violations in order: i == j or j == k
    gives one map on both sides (action_matrix is the identity on (x, x));
    M(i,k) at g needs betweenness and an action stored there (never for
    i == k: distinct points are at positive distance); M(j,k) M(i,j) needs
    actions stored at (i, j) at g and at (j, k) at g + d(i, j).
    """
    violations = []
    n = len(space)
    if module.space != space:
        violations.append(ModuleViolation("ShapeMismatch", (), "module built over a different space"))
        return violations
    for (i, j), per_grade in module.actions.items():
        if i == j:
            for g, mat in per_grade.items():
                if mat != _identity(module.rank_at(i, g)):
                    violations.append(
                        ModuleViolation(
                            "IdentityViolation",
                            (space.points[i], g),
                            "stored self-action differs from the identity",
                        )
                    )
            continue
        d = space.d(i, j)
        if d is INF:
            violations.append(
                ModuleViolation(
                    "ShapeMismatch",
                    (space.points[i], space.points[j]),
                    "action stored for a pair at infinite distance",
                )
            )
            continue
        for g, mat in per_grade.items():
            src = module.rank_at(i, g)
            dst = module.rank_at(j, g + d)
            widths = {len(row) for row in mat}
            if len(mat) != dst or widths - {src}:
                cols = "/".join(map(str, sorted(widths))) or "0"
                violations.append(
                    ModuleViolation(
                        "ShapeMismatch",
                        (space.points[i], space.points[j], g),
                        f"matrix is {len(mat)}x{cols}, expected {dst}x{src}",
                    )
                )
    if violations:
        return violations
    actions = module.actions
    middles = space.middles
    for i in range(n):
        for j in range(n):
            dij = space.d(i, j)
            if i == j or dij is INF:
                continue
            ij = actions.get((i, j), {})
            for k in range(n):
                djk = space.d(j, k)
                if j == k or djk is INF:
                    continue
                betw = j in middles[i][k]
                jk = actions.get((j, k), {})
                ik = actions.get((i, k), {}) if betw else {}
                for g in module.components[i]:
                    if g not in ik and not (g in ij and g + dij in jk):
                        continue
                    left = _mat_mul(
                        module.action_matrix(j, k, g + dij), module.action_matrix(i, j, g)
                    )
                    right = (
                        module.action_matrix(i, k, g)
                        if betw
                        else _zeros(module.rank_at(k, g + dij + djk), module.rank_at(i, g))
                    )
                    if _nonzero_entries(left) != _nonzero_entries(right):
                        violations.append(
                            ModuleViolation(
                                "CompositionViolation",
                                (space.points[i], space.points[j], space.points[k], g),
                                "M(y,z) M(x,y) differs from the betweenness rule",
                            )
                        )
    if not violations:
        module.validated = True
    return violations


def _validated(space, components, actions):
    module = DistanceModule(space, components, actions)
    problems = validate_module(space, module)
    assert not problems, problems
    return module


def trivial_module(space: QuasimetricSpace, grade, rank: int) -> DistanceModule:
    """Every point carries the same free piece; all actions between distinct
    points vanish."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    grade = parse_dist(grade)
    components = {i: ({grade: rank} if rank else {}) for i in range(len(space))}
    return _validated(space, components, {})


def shift_module(module: DistanceModule, s) -> DistanceModule:
    """Shift every grade up by s; actions re-indexed, validity preserved."""
    s = parse_dist(s)
    components = {
        i: {g + s: r for g, r in comp.items()}
        for i, comp in enumerate(module.components)
    }
    actions = {
        pair: {g + s: mat for g, mat in per_grade.items()}
        for pair, per_grade in module.actions.items()
    }
    return DistanceModule(module.space, components, actions, validated=module.validated)


def representable_module(space: QuasimetricSpace, x) -> DistanceModule:
    """Row of the distance algebra at a point: rank 1 at grade d(x, y) for
    each reachable y, identity action exactly where betweenness holds."""
    xi = space.idx(x)
    n = len(space)
    components = {}
    for y in range(n):
        d = space.d(xi, y)
        components[y] = {d: 1} if d is not INF else {}
    from_x = space.middles[xi]
    actions = {}
    for y in range(n):
        for z in range(n):
            if y != z and y in from_x[z]:
                actions.setdefault((y, z), {})[space.d(xi, y)] = ((1,),)
    return _validated(space, components, actions)


def direct_sum(a: DistanceModule, b: DistanceModule) -> DistanceModule:
    """Pointwise direct sum with block-diagonal actions."""
    if a.space != b.space:
        raise UnvalidatedModule("direct sum needs modules over the same space")
    space = a.space
    n = len(space)
    components = {}
    for i in range(n):
        grades = set(a.components[i]) | set(b.components[i])
        components[i] = {g: a.rank_at(i, g) + b.rank_at(i, g) for g in grades}
    actions = {}
    for i in range(n):
        for j in range(n):
            if i == j or space.d(i, j) is INF:
                continue
            d = space.d(i, j)
            per_grade = {}
            grades = set(a.components[i]) | set(b.components[i])
            for g in grades:
                ra, rb = a.rank_at(i, g), b.rank_at(i, g)
                sa, sb = a.rank_at(j, g + d), b.rank_at(j, g + d)
                if (ra + rb) == 0 or (sa + sb) == 0:
                    continue
                ma = a.action_matrix(i, j, g)
                mb = b.action_matrix(i, j, g)
                block = [[0] * (ra + rb) for _ in range(sa + sb)]
                for r in range(sa):
                    for c in range(ra):
                        block[r][c] = ma[r][c]
                for r in range(sb):
                    for c in range(rb):
                        block[sa + r][ra + c] = mb[r][c]
                mat = tuple(tuple(row) for row in block)
                if not _is_zero_mat(mat):
                    per_grade[g] = mat
            if per_grade:
                actions[(i, j)] = per_grade
    out = DistanceModule(space, components, actions)
    out.validated = a.validated and b.validated
    return out


def _require_validated(module):
    if not module.validated:
        raise UnvalidatedModule("run validate_module first")


@dataclass(frozen=True)
class InvariantBlock:
    grade: Fraction
    rank: int
    kernels: tuple  # ((point label, tuple of kernel vectors), ...)


def invariants(module: DistanceModule):
    """Per grade, elements killed by every action to a different point.

    For each point x the block is the kernel of the stacked map
    M(x)_g -> sum over reachable y != x of M(y)_{g + d(x,y)}; bases are
    integer vectors (the kernel lattice is torsion-free).
    """
    _require_validated(module)
    space = module.space
    n = len(space)
    out = []
    for g in module.grades():
        rank = 0
        kernels = []
        for x in range(n):
            r = module.rank_at(x, g)
            if r == 0:
                continue
            blocks = []
            for y in range(n):
                if y == x or space.d(x, y) is INF:
                    continue
                mat = module.action_matrix(x, y, g)
                if mat:
                    blocks.append(SparseMatrix.from_dense([list(row) for row in mat], cols=r))
            if blocks:
                stacked = SparseMatrix(sum(b.rows for b in blocks), r)
                r0 = 0
                for b in blocks:
                    for (rr, cc), v in b.entries.items():
                        stacked.entries[(r0 + rr, cc)] = v
                    r0 += b.rows
                basis = integer_kernel_basis(stacked)
            else:
                basis = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
            if basis:
                rank += len(basis)
                kernels.append((space.points[x], tuple(tuple(v) for v in basis)))
        if rank:
            out.append(InvariantBlock(grade=g, rank=rank, kernels=tuple(kernels)))
    return out


@dataclass(frozen=True)
class CoinvariantBlock:
    grade: Fraction
    betti: int
    torsion: tuple


def coinvariants(module: DistanceModule):
    """Per grade, the cokernel of everything arriving at each point.

    The block at grade g is the cokernel of the stacked map from all
    M(y)_{g - d(y,x)} into M(x)_g, summed over points x and summarized by
    the Smith form (free rank plus invariant factors)."""
    _require_validated(module)
    space = module.space
    n = len(space)
    out = []
    for g in module.grades():
        total = 0
        point_blocks = []
        for x in range(n):
            r = module.rank_at(x, g)
            if r == 0:
                continue
            total += r
            incoming = []
            for y in range(n):
                if y == x:
                    continue
                d = space.d(y, x)
                if d is INF:
                    continue
                src = module.rank_at(y, g - d)
                if src == 0:
                    continue
                mat = module.action_matrix(y, x, g - d)
                incoming.append(SparseMatrix.from_dense([list(row) for row in mat], rows=r, cols=src))
            if incoming:
                point_blocks.append(SparseMatrix.hstack(incoming))
            else:
                point_blocks.append(SparseMatrix(r, 0))
        if total == 0:
            continue
        big = SparseMatrix.block_diag(point_blocks)
        factors = snf(big)
        betti = total - len(factors)
        torsion = tuple(d for d in factors if d > 1)
        if betti or torsion:
            out.append(CoinvariantBlock(grade=g, betti=betti, torsion=torsion))
    return out


def hom_from_trivial(module: DistanceModule, grade) -> int:
    """Rank of morphisms from the rank-1 trivial module shifted to the grade.

    A morphism picks m_x in M(x)_grade for every point, subject to
    m_x . y = 0 for every reachable y != x; the rank is the dimension of the
    solution space of that single stacked linear system.  Equals the
    invariants rank at the grade.
    """
    _require_validated(module)
    grade = parse_dist(grade)
    space = module.space
    n = len(space)
    offsets = []
    total = 0
    for x in range(n):
        offsets.append(total)
        total += module.rank_at(x, grade)
    if total == 0:
        return 0
    rows = []
    for x in range(n):
        r = module.rank_at(x, grade)
        if r == 0:
            continue
        for y in range(n):
            if y == x or space.d(x, y) is INF:
                continue
            mat = module.action_matrix(x, y, grade)
            for row in mat:
                if any(row):
                    full = [0] * total
                    for c, v in enumerate(row):
                        full[offsets[x] + c] = v
                    rows.append(full)
    if not rows:
        return total
    system = SparseMatrix.from_dense(rows, cols=total)
    return total - rank_over_field(system, QQ)
