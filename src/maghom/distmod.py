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


def times_entries(block, entries):
    """Nonzero entries of a dense block times the matrix whose nonzero
    entries are {(row, col): value}."""
    out = {}
    for (k, j), v in entries.items():
        for i, row in enumerate(block):
            if row[k]:
                out[(i, j)] = out.get((i, j), 0) + row[k] * v
    return {key: v for key, v in out.items() if v}


def shape_mismatch(mat, rows, cols) -> str:
    """'' when the matrix is rows x cols, else 'AxB, expected {rows}x{cols}'."""
    widths = {len(row) for row in mat}
    if len(mat) == rows and not widths - {cols}:
        return ""
    return f"{len(mat)}x{'/'.join(map(str, sorted(widths))) or '0'}, expected {rows}x{cols}"


def _place(matrix: SparseMatrix, block, r0, c0):
    """Write a dense block's nonzero entries into the matrix at (r0, c0)."""
    for r, row in enumerate(block, r0):
        for c, v in enumerate(row, c0):
            if v:
                matrix.entries[(r, c)] = v


class DistanceModule:
    """Components and action matrices over a fixed space.

    components: per point index, {grade: rank} with zero ranks omitted.
    actions: {(i, j): {grade: matrix}} for i != j with finite d(i, j); a
    missing entry is the zero map.  Matrices are tuples of tuples of ints,
    shaped rank(j, g + d) x rank(i, g).  A rank or an entry that is not an
    integer, a negative rank, or a matrix or row that is not a list or tuple
    raises InvalidInput naming its point or pair.
    An all-zero matrix is dropped only where it is that zero map; one on a
    pair (x, x), at infinite distance or of another shape is kept, so that
    validate_module reports it as it would a nonzero one.
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
            pair = f"{space.points[i]!r}->{space.points[j]!r}"
            where = f"action entry {pair}"
            d = space.d(i, j)
            kept = {}
            for g, mat in per_grade.items():
                g = _finite_grade(g)
                if not isinstance(mat, (list, tuple)) or not all(
                    isinstance(row, (list, tuple)) for row in mat
                ):
                    raise InvalidInput(
                        f"action {pair} at grade {format_dist(g)} must be a list of rows"
                        f" of integers, not {mat!r}"
                    )
                mat = tuple(tuple(_integer(v, where) for v in row) for row in mat)
                if (
                    i == j
                    or d is INF
                    or not _is_zero_mat(mat)
                    or shape_mismatch(mat, self.rank_at(j, g + d), self.rank_at(i, g))
                ):
                    kept[g] = mat
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
    gives one map on both sides (M(x,x) is the identity); M(i,k) at g needs
    betweenness and an action stored there (never for i == k: distinct
    points are at positive distance); M(j,k) M(i,j) needs actions stored at
    (i, j) at g and at (j, k) at g + d(i, j).  Each side is the product of
    its stored maps with the identity of M(i)_g, as nonzero entries.
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
            wrong = shape_mismatch(mat, module.rank_at(j, g + d), module.rank_at(i, g))
            if wrong:
                violations.append(
                    ModuleViolation(
                        "ShapeMismatch", (space.points[i], space.points[j], g), f"matrix is {wrong}"
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
                if j == k or space.d(j, k) is INF:
                    continue
                betw = j in middles[i][k]
                jk = actions.get((j, k), {})
                ik = actions.get((i, k), {}) if betw else {}
                for g, r in module.components[i].items():
                    composable = g in ij and g + dij in jk
                    if g not in ik and not composable:
                        continue
                    unit = {(c, c): 1 for c in range(r)}
                    left = times_entries(jk[g + dij], times_entries(ij[g], unit)) if composable else {}
                    right = times_entries(ik[g], unit) if g in ik else {}
                    if left != right:
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
    for i, j in a.actions.keys() | b.actions.keys():
        d = space.d(i, j)
        if i == j or d is INF:
            continue
        ma, mb = a.actions.get((i, j), {}), b.actions.get((i, j), {})
        per_grade = {}
        for g in ma.keys() | mb.keys():
            ra, sa = a.rank_at(i, g), a.rank_at(j, g + d)
            block = [[0] * (ra + b.rank_at(i, g)) for _ in range(sa + b.rank_at(j, g + d))]
            for r, row in enumerate(ma.get(g, ())):
                block[r][:ra] = row
            for r, row in enumerate(mb.get(g, ()), sa):
                block[r][ra:] = row
            per_grade[g] = tuple(map(tuple, block))
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
    integer vectors (the kernel lattice is torsion-free).  Only the stored
    maps are stacked, in the order of y: a missing one is zero.
    """
    _require_validated(module)
    space = module.space
    n = len(space)
    out = []
    for g in module.grades():
        rank = 0
        kernels = []
        for x, comp in enumerate(module.components):
            if g not in comp:
                continue
            stacked = SparseMatrix(0, comp[g])
            for y in range(n):
                block = module.actions.get((x, y), {}).get(g) if y != x else None
                if block:
                    _place(stacked, block, stacked.rows, 0)
                    stacked.rows += len(block)
            basis = integer_kernel_basis(stacked)
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


def _offsets(module, grade):
    """Each point's first index in the sum of the M(x)_grade, and the total rank."""
    offsets, total = [], 0
    for comp in module.components:
        offsets.append(total)
        total += comp.get(grade, 0)
    return offsets, total


def coinvariants(module: DistanceModule):
    """Per grade, the cokernel of everything arriving at each point.

    The block at grade g is the cokernel of the stacked map from all
    M(y)_{g - d(y,x)} into M(x)_g, summed over points x and summarized by
    the Smith form (free rank plus invariant factors).  Each stored map
    y -> x fills its own columns at x's rows; a missing one is zero."""
    _require_validated(module)
    space = module.space
    out = []
    for g in module.grades():
        offsets, total = _offsets(module, g)
        big = SparseMatrix(total, 0)
        for (y, x), per_grade in module.actions.items():
            block = per_grade.get(g - space.d(y, x)) if y != x else None
            if block:
                _place(big, block, offsets[x], big.cols)
                big.cols += len(block[0])
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
    solution space of that single stacked linear system, whose rows are the
    stored maps out of each point at its columns.  Equals the invariants
    rank at the grade.
    """
    _require_validated(module)
    grade = parse_dist(grade)
    offsets, total = _offsets(module, grade)
    system = SparseMatrix(0, total)
    for (x, y), per_grade in module.actions.items():
        block = per_grade.get(grade) if x != y else None
        if block:
            _place(system, block, system.rows, offsets[x])
            system.rows += len(block)
    return total - rank_over_field(system, QQ)
