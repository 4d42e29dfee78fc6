"""Independent brute-force oracles used to pin expected values in tests.

Nothing here shares code with the package: shortest paths are recomputed by
plain breadth-first search on adjacency lists, tuple enumeration walks every
raw sequence, and the Smith form oracle is a dense textbook elimination.
There are three exceptions.  The module-coefficient and distance-module
references build their matrices through `DistanceModule.action_matrix` and
`SparseMatrix.add_at`, the definitions that the package's own builders
bypass; the invariants reference keeps the package's integer kernel basis.
The reference Smith elimination at the end: its peel of the unit pivots is
written apart, but its block search keeps the package's row and column
operations (`_clear`), and it pins the order in which the package picks its
pivots.  And the ring products reference,
which pins the loop of the ring table and not its parts: it reuses the
package's class sets, cup product and class coordinates.
"""

from fractions import Fraction
from math import gcd, lcm

from maghom.linalg import SparseMatrix, _clear


def dense_rows(matrix: SparseMatrix):
    """The rows of a sparse matrix as lists, zeros filled in."""
    rows = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return rows


def bfs_distances(vertices, arcs):
    """{(u, v): hops} over reachable pairs, by breadth-first search."""
    adj = {v: [] for v in vertices}
    for u, v in arcs:
        adj[u].append(v)
    out = {}
    for s in vertices:
        out[(s, s)] = 0
        frontier = [s]
        depth = 0
        seen = {s}
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        out[(s, w)] = depth
                        nxt.append(w)
            frontier = nxt
    return out


def _raw_walks(space, n, normalized):
    """Every raw (n+1)-sequence with finite steps, with its Fraction grade."""
    from itertools import product

    from maghom.space import INF

    for seq in product(range(len(space)), repeat=n + 1):
        if normalized and any(a == b for a, b in zip(seq, seq[1:])):
            continue
        total = Fraction(0)
        for a, b in zip(seq, seq[1:]):
            d = space.d(a, b)
            if d is INF:
                break
            total += d
        else:
            yield seq, total


def exhaustive_tuples(space, n, grade, normalized=True):
    """All (n+1)-tuples of the exact grade by filtering every raw sequence."""
    grade = Fraction(grade)
    return sorted(seq for seq, total in _raw_walks(space, n, normalized) if total == grade)


def exhaustive_tuples_up_to(space, n, cap, normalized=True):
    """All (n+1)-tuples of grade <= cap with their grades, in sequence order."""
    return [(seq, total) for seq, total in _raw_walks(space, n, normalized) if total <= cap]


def exhaustive_grades(space, cap):
    """0 and every grade <= cap of a walk with distinct consecutive points.

    A step between distinct points is at least the least positive distance,
    so longer walks than cap / least cannot stay under the cap."""
    from maghom.space import INF

    n = len(space)
    steps = [space.d(i, j) for i in range(n) for j in range(n) if i != j]
    finite = [d for d in steps if d is not INF]
    longest = int(cap // min(finite)) if finite and cap >= 0 else 0
    grades = {Fraction(0)}
    for k in range(1, longest + 1):
        grades.update(total for _, total in _raw_walks(space, k, True) if total <= cap)
    return sorted(grades)


def walk_count_euler_characteristic(space, grade):
    """Sum over k of (-1)^k times the number of normalized k-step walks of
    exactly the given grade: the Euler characteristic of the grade-l chain
    complex, counted without building a tuple.

    An integer DP over (endpoint, grade units) read from space.d alone; a
    unit is 1 over the lcm of the finite distances' denominators.  A step
    between distinct points is positive, so every walk ends under the grade.
    """
    from maghom.space import INF

    n = len(space)
    steps = [(i, j, Fraction(space.d(i, j))) for i in range(n) for j in range(n)
             if i != j and space.d(i, j) is not INF]
    den = lcm(1, *(d.denominator for _, _, d in steps))
    target = Fraction(grade) * den
    if target.denominator != 1 or target < 0:
        return 0
    target = int(target)
    out = {}
    for i, j, d in steps:
        out.setdefault(i, []).append((j, int(d * den)))
    counts = {(x, 0): 1 for x in range(n)}
    chi, sign = 0, 1
    while counts:
        chi += sign * sum(c for (_, u), c in counts.items() if u == target)
        longer = {}
        for (x, u), c in counts.items():
            for y, step in out.get(x, ()):
                if u + step <= target:
                    longer[(y, u + step)] = longer.get((y, u + step), 0) + c
        counts, sign = longer, -sign
    return chi


def dense_snf(rows):
    """Textbook Smith normal form of a dense integer matrix (list of lists)."""
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    factors = []
    top = 0
    while top < min(m, n):
        # find smallest nonzero entry in the remaining block
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[top], A[pi] = A[pi], A[top]
        for row in A:
            row[top], row[pj] = row[pj], row[top]
        dirty = False
        for i in range(top + 1, m):
            q = A[i][top] // A[top][top]
            if q:
                for j in range(n):
                    A[i][j] -= q * A[top][j]
            if A[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = A[top][j] // A[top][top]
            if q:
                for i in range(m):
                    A[i][j] -= q * A[i][top]
            if A[top][j]:
                dirty = True
        if not dirty:
            factors.append(abs(A[top][top]))
            top += 1
    return divisibility_chain_fixpoint(factors)


def divisibility_chain_fixpoint(values):
    """The invariant factors of diag(values): replace a pair (a, b) with
    b % a != 0 by (gcd, lcm) until no such pair is left, then sort."""
    factors = list(values)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if factors[j] % factors[i]:
                    g = gcd(factors[i], factors[j])
                    factors[i], factors[j] = g, factors[i] * factors[j] // g
                    changed = True
    return sorted(factors)


def dense_rank_qq(rows):
    """Rank over the rationals by dense Fraction elimination."""
    A = [[Fraction(v) for v in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def dense_rref(rows, p=None):
    """(nonzero rows of the reduced row echelon form, pivot columns) over Q or GF(p)."""
    red = (lambda x: x) if p is None else (lambda x: x % p)
    A = [[red(Fraction(v) if p is None else v) for v in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c] if p is None else pow(A[r][c], p - 2, p)
        A[r] = [red(x * inv) for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [red(x - f * y) for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A[: len(pivots)], pivots


def dense_kernel_rref(rows, n, p=None):
    """Basis of {v : Av = 0} in reduced echelon form: each vector's first
    nonzero entry is 1 and every other vector is 0 there; sorted by it."""
    R, pivots = dense_rref(rows, p)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -R[i][f] if p is None else -R[i][f] % p
        basis.append(v)
    return dense_rref(basis, p)[0] if basis else []


def dense_solve(columns, target, p=None):
    """Solution of sum_j x_j columns[j] = target that is 0 on every column
    depending on earlier ones, by Gauss-Jordan on [columns | target]; None
    when target lies outside the span."""
    k = len(columns)
    aug = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    R, pivots = dense_rref(aug, p)
    if k in pivots:
        return None
    coeffs = [0] * k
    for i, c in enumerate(pivots):
        coeffs[c] = R[i][k]
    return coeffs


def all_paths_up_to(vertices, arcs, max_len):
    """Every directed path (vertex tuple) with at most max_len arcs."""
    adj = {v: [] for v in vertices}
    for u, v in arcs:
        adj[u].append(v)
    out = [(v,) for v in vertices]
    frontier = [(v,) for v in vertices]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for w in adj[p[-1]]:
                nxt.append(p + (w,))
        out.extend(nxt)
        frontier = nxt
    return out


def walk_grade(space, t):
    """Sum of the consecutive distances of a tuple with finite steps."""
    return sum((space.d(a, b) for a, b in zip(t, t[1:])), Fraction(0))


def full_scan_tor_space(res, module, k, grade):
    """(gen_index, j) over every degree-k generator a in order: the head
    component M(a[0]) in grade (grade - |a|)."""
    return [
        (gi, j)
        for gi, a in enumerate(res.gens[k])
        for j in range(module.rank_at(a[0], grade - walk_grade(res.space, a)))
    ]


def full_scan_ext_space(res, module, k, grade):
    """(gen_index, j) over every degree-k generator a in order: the tail
    component M(a[-1]) in grade (|a| - grade)."""
    return [
        (gi, j)
        for gi, a in enumerate(res.gens[k])
        for j in range(module.rank_at(a[-1], walk_grade(res.space, a) - grade))
    ]


def positional_bar_boundary(res, n):
    """{(row, col): value} of a bar resolution's d_n on its tuple basis, by
    positional deletion: face i deletes position i + 1 on the left (never the
    first point) or position i on the right (never the last), with sign
    (-1)^i, whenever the deletion keeps the tuple's grade."""
    rows = {t: r for r, t in enumerate(res.basis[n - 1])}
    shift = 1 if res.side == "left" else 0
    out = {}
    for col, t in enumerate(res.basis[n]):
        for i in range(n + 1):
            p = i + shift
            face = t[:p] + t[p + 1 :]
            if walk_grade(res.space, face) == walk_grade(res.space, t):
                key = (rows[face], col)
                out[key] = out.get(key, 0) + (-1 if i % 2 else 1)
    return {key: v for key, v in out.items() if v}


def reference_gen_boundary_terms(res, n):
    """A bar resolution's degree-n differential on free generators, from the
    definition: one {target_gen_index: {pair: coefficient}} per generator.

    Each generator's basis tuple (its kept end doubled) loses one position
    at a time as in `positional_bar_boundary`; a face that keeps the grade
    is an algebra pair (its first two points on the left, its last two on
    the right) times a degree-(n-1) generator, and a pair of one point is
    multiplied out as the identity (pair None).  Terms are summed by target
    and pair, and a zero sum is dropped."""
    space, left = res.space, res.side == "left"
    gen_index = {t: i for i, t in enumerate(res.gens[n - 1])}
    out = []
    for a in res.gens[n]:
        t = (a[0],) + a if left else a + (a[-1],)
        sums = {}
        for i in range(n + 1):
            p = i + 1 if left else i
            face = t[:p] + t[p + 1 :]
            if walk_grade(space, face) != walk_grade(space, t):
                continue
            pair, gen = (face[:2], face[1:]) if left else (face[-2:], face[:-1])
            key = (gen_index[gen], None if pair[0] == pair[1] else pair)
            sums[key] = sums.get(key, 0) + (-1 if i % 2 else 1)
        terms = {}
        for (ti, pair), v in sums.items():
            if v:
                terms.setdefault(ti, {})[pair] = v
        out.append(terms)
    return out


def reference_ring_products(space, n_max, l_max, fld):
    """A ring table's products, by cupping every pair of basis classes: each
    (left, right) block whose target stays in the box is expanded against
    its target with one `_class_coordinates` call, zero products included.
    Each grade's classes are built from their own complex at each degree."""
    from maghom.ring import _class_coordinates, cohomology_classes, cup
    from maghom.space import attainable_grades, parse_dist

    l_max = parse_dist(l_max)
    built = {
        (n, g): cohomology_classes(space, n, g, fld)
        for g in attainable_grades(space, l_max)
        for n in range(n_max + 1)
    }
    classes = {key: cs for key, cs in built.items() if cs.dim()}
    products = []
    for (m, s), left in sorted(classes.items()):
        for (n, l), right in sorted(classes.items()):
            if m + n > n_max or s + l > l_max:
                continue
            key = (m + n, s + l)
            if key not in built:
                built[key] = cohomology_classes(space, *key, fld)
            pairs = [(i, j) for i in range(left.dim()) for j in range(right.dim())]
            prods = [cup(left.representatives[i], right.representatives[j]) for i, j in pairs]
            for (i, j), result in zip(pairs, _class_coordinates(built[key], prods, fld)):
                products.append(
                    {
                        "lhs": (m, s, i),
                        "rhs": (n, l, j),
                        "result": [(v, k) for k, v in sorted(result.items())],
                    }
                )
    return products


def reference_module_matrix(res, module, k, grade, src, tgt):
    """The module complex's map from degree k to k-1 at one grade, from the
    definition: each degree-k generator's basis tuple (its kept end doubled)
    loses one position at a time as in `positional_bar_boundary`, a face
    that keeps the grade is an algebra pair times a degree-(k-1) generator,
    and the pair acts through module.action_matrix (the identity on a pair
    of one point); every coefficient goes in through add_at.  On the left
    the action carries the source piece forward, M(pair) at its grade; on
    the right it is Hom's coboundary transposed, M(pair) at the target's
    grade read by row."""
    space, left = res.space, res.side == "left"
    gen_index = {t: i for i, t in enumerate(res.gens[k - 1])}
    rows = {(ti, j): r for r, (ti, _, j) in enumerate(tgt)}
    mat = SparseMatrix(len(tgt), len(src))
    for col, (gi, h, j) in enumerate(src):
        a = res.gens[k][gi]
        t = (a[0],) + a if left else a + (a[-1],)
        for i in range(k + 1):
            p = i + 1 if left else i
            face = t[:p] + t[p + 1 :]
            if walk_grade(space, face) != walk_grade(space, t):
                continue
            sign = -1 if i % 2 else 1
            if left:
                gen = face[1:]
                coeffs = [row[j] for row in module.action_matrix(face[0], face[1], h)]
            else:
                gen = face[:-1]
                at = walk_grade(space, gen) - grade
                coeffs = module.action_matrix(face[-2], face[-1], at)[j]
            ti = gen_index[gen]
            for r, v in enumerate(coeffs):
                if v:
                    mat.add_at(rows[ti, r], col, sign * v)
    return mat


def reference_coefficient_boundary(space, module, grade, n, src, tgt):
    """d_n of the normalized chain complex with coefficients in a module,
    on its (tuple, j) bases: face 0 moves the coefficient along
    module.action_matrix(x_0, x_1), an interior face whose point lies between
    its neighbours deletes it; every entry goes in through add_at."""
    index = {lab: r for r, lab in enumerate(tgt)}
    mat = SparseMatrix(len(tgt), len(src))
    for col, (t, j) in enumerate(src):
        action = module.action_matrix(t[0], t[1], grade - walk_grade(space, t))
        for r, row in enumerate(action):
            if row[j]:
                mat.add_at(index[(t[1:], r)], col, row[j])
        for i in range(1, n):
            face = t[:i] + t[i + 1 :]
            if walk_grade(space, face) == walk_grade(space, t):
                mat.add_at(index[(face, j)], col, -1 if i % 2 else 1)
    return mat


def reference_validate_module(space, module):
    """validate_module's violations by the dense triple loop: every triple
    (i, j, k) with finite steps and every grade of M(i), both sides of the
    composition law built in full and compared, nothing skipped.  Leaves
    the module's validated flag alone."""
    from maghom.distmod import ModuleViolation
    from maghom.space import INF

    def product(a, b):
        cols = len(b[0]) if b else 0
        return [
            [sum(a[r][m] * b[m][c] for m in range(len(b))) for c in range(cols)]
            for r in range(len(a))
        ]

    def nonzero(a):
        return {(r, c): v for r, row in enumerate(a) for c, v in enumerate(row) if v}

    violations = []
    n = len(space)
    if module.space != space:
        return [ModuleViolation("ShapeMismatch", (), "module built over a different space")]
    for (i, j), per_grade in module.actions.items():
        if i == j:
            for g, mat in per_grade.items():
                rank = module.rank_at(i, g)
                identity = [[int(r == c) for c in range(rank)] for r in range(rank)]
                if [list(row) for row in mat] != identity:
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
            src, dst = module.rank_at(i, g), module.rank_at(j, g + d)
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
    for i in range(n):
        for j in range(n):
            dij = space.d(i, j)
            if dij is INF:
                continue
            for k in range(n):
                djk = space.d(j, k)
                if djk is INF:
                    continue
                dik = space.d(i, k)
                between = dik is not INF and dij + djk == dik
                for g in module.components[i]:
                    left = product(module.action_matrix(j, k, g + dij), module.action_matrix(i, j, g))
                    right = module.action_matrix(i, k, g) if between else []
                    if nonzero(left) != nonzero(right):
                        violations.append(
                            ModuleViolation(
                                "CompositionViolation",
                                (space.points[i], space.points[j], space.points[k], g),
                                "M(y,z) M(x,y) differs from the betweenness rule",
                            )
                        )
    return violations


# ---------------------------------------------------------------------------
# dense distance-module references: every map is read through
# module.action_matrix, so a pair that stores nothing gives its dense zero
# block and a point its dense identity.  Ranks and Smith forms come from the
# dense oracles above; the invariants' kernel bases come from the package's
# integer_kernel_basis, which fixes which basis of the kernel is returned.


def _dense_into(rows, cols):
    """A sparse matrix of the dense rows, every entry through add_at."""
    mat = SparseMatrix(len(rows), cols)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            mat.add_at(r, c, v)
    return mat


def reference_invariants(module):
    """Per grade and point x, the kernel of the maps to every reachable
    y != x, zero blocks included, stacked in the order of y."""
    from maghom.distmod import InvariantBlock
    from maghom.linalg import integer_kernel_basis
    from maghom.space import INF

    space = module.space
    n = len(space)
    out = []
    for g in module.grades():
        kernels = []
        for x in range(n):
            r = module.rank_at(x, g)
            if r == 0:
                continue
            rows = [
                list(row)
                for y in range(n)
                if y != x and space.d(x, y) is not INF
                for row in module.action_matrix(x, y, g)
            ]
            basis = integer_kernel_basis(_dense_into(rows, r))
            if basis:
                kernels.append((space.points[x], tuple(tuple(v) for v in basis)))
        rank = sum(len(basis) for _, basis in kernels)
        if rank:
            out.append(InvariantBlock(grade=g, rank=rank, kernels=tuple(kernels)))
    return out


def reference_coinvariants(module):
    """Per grade, the dense Smith form of the block-diagonal matrix whose
    block at x holds every incoming map side by side, zero blocks included."""
    from maghom.distmod import CoinvariantBlock
    from maghom.space import INF

    space = module.space
    n = len(space)
    out = []
    for g in module.grades():
        blocks = []
        for x in range(n):
            r = module.rank_at(x, g)
            if r == 0:
                continue
            incoming = [
                module.action_matrix(y, x, g - space.d(y, x))
                for y in range(n)
                if y != x
                and space.d(y, x) is not INF
                and module.rank_at(y, g - space.d(y, x))
            ]
            blocks.append([[v for mat in incoming for v in mat[i]] for i in range(r)])
        width = sum(len(block[0]) for block in blocks)
        dense, c0 = [], 0
        for block in blocks:
            dense += [[0] * c0 + row + [0] * (width - c0 - len(row)) for row in block]
            c0 += len(block[0])
        factors = dense_snf(dense)
        betti = len(dense) - len(factors)
        torsion = tuple(d for d in factors if d > 1)
        if betti or torsion:
            out.append(CoinvariantBlock(grade=g, betti=betti, torsion=torsion))
    return out


def reference_hom_from_trivial(module, grade):
    """The total rank at the grade minus the dense rank over Q of one system:
    a row per row of every map x -> y (reachable y != x), at x's columns."""
    from maghom.space import INF, parse_dist

    grade = parse_dist(grade)
    space = module.space
    n = len(space)
    offsets, total = [], 0
    for x in range(n):
        offsets.append(total)
        total += module.rank_at(x, grade)
    rows = []
    for x in range(n):
        for y in range(n):
            if y != x and space.d(x, y) is not INF and module.rank_at(x, grade):
                for row in module.action_matrix(x, y, grade):
                    full = [0] * total
                    full[offsets[x] : offsets[x] + len(row)] = row
                    rows.append(full)
    return total - dense_rank_qq(rows)


def reference_direct_sum(a, b):
    """Pointwise sum; on every finite pair and every grade of M(i), the
    block-diagonal matrix of the two action_matrix blocks, kept if nonzero."""
    from maghom.distmod import DistanceModule
    from maghom.space import INF

    space = a.space
    n = len(space)
    components = {}
    actions = {}
    for i in range(n):
        grades = set(a.components[i]) | set(b.components[i])
        components[i] = {g: a.rank_at(i, g) + b.rank_at(i, g) for g in grades}
        for j in range(n):
            d = space.d(i, j)
            if i == j or d is INF:
                continue
            for g in grades:
                ra, rb = a.rank_at(i, g), b.rank_at(i, g)
                sa, sb = a.rank_at(j, g + d), b.rank_at(j, g + d)
                ma, mb = a.action_matrix(i, j, g), b.action_matrix(i, j, g)
                block = [[0] * (ra + rb) for _ in range(sa + sb)]
                for r in range(sa):
                    for c in range(ra):
                        block[r][c] = ma[r][c]
                for r in range(sb):
                    for c in range(rb):
                        block[sa + r][ra + c] = mb[r][c]
                if any(any(row) for row in block):
                    actions.setdefault((i, j), {})[g] = tuple(tuple(row) for row in block)
    out = DistanceModule(space, components, actions)
    out.validated = a.validated and b.validated
    return out


def reference_representation_violations(graph, rep):
    """check_representation_relations for well-shaped arc maps: each path's
    composite is the dense product of its action_matrix steps, the shapes
    tracked so that a rank-0 piece on the way gives the zero map."""
    from maghom.quiver import RelationViolation, quiver_relations
    from maghom.space import digraph_to_space

    space = digraph_to_space(graph)
    relations = quiver_relations(graph)

    def composite(path, grade):
        src = rep.rank_at(space.idx(path[0]), grade)
        cur = [[int(i == j) for j in range(src)] for i in range(src)]
        for u, v in zip(path, path[1:]):
            step = rep.action_matrix(space.idx(u), space.idx(v), grade)
            cur = [
                [sum(step[i][k] * cur[k][j] for k in range(len(cur))) for j in range(src)]
                for i in range(rep.rank_at(space.idx(v), grade + 1))
            ]
            grade += 1
        return {(i, j): v for i, row in enumerate(cur) for j, v in enumerate(row) if v}

    violations = []
    for g in rep.grades():
        for a, b in relations.r1:
            if rep.rank_at(space.idx(a[0]), g) and composite(a, g) != composite(b, g):
                violations.append(RelationViolation((a, b), g, "R1 composites differ"))
        for p in relations.r2:
            if rep.rank_at(space.idx(p[0]), g) and composite(p, g):
                violations.append(RelationViolation((p,), g, "R2 composite is nonzero"))
    return violations


# ---------------------------------------------------------------------------
# reference Smith elimination: a peel of the unit pivots that need no
# arithmetic, then blocks by union-find, each block rebuilt into its own row
# and column dicts, empty lines swept before every pivot.  The package's
# eliminator must pick the same pivots, in the same order, and track the
# same column transform Q.


def _pick_pivot(rows, cols):
    """Smallest |entry| first, then least fill-in, then position (determinism)."""
    best = None
    best_key = None
    for r, row in rows.items():
        rfill = len(row) - 1
        for c, v in row.items():
            key = (abs(v), rfill * (len(cols[c]) - 1), r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
                if key[0] == 1 and key[1] == 0:
                    return best
    return best


def _blocks(matrix: SparseMatrix) -> list[list]:
    """The nonzero entries grouped into the matrix's connected blocks.

    Rows and columns are the nodes of a graph whose edges are the entries;
    union-find joins the row and the column of every entry (column c is
    node ~c).  Blocks come in the order of their first entry and keep their
    entries in the matrix's order, as ((row, col), value) pairs.
    """
    parent = {}

    def find(x):
        root = x
        while (up := parent.setdefault(root, root)) != root:
            root = up
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for r, c in matrix.entries:
        a, b = find(r), find(~c)
        if a != b:
            parent[a] = b
    blocks = {}
    for key, v in matrix.entries.items():
        blocks.setdefault(find(key[0]), []).append((key, v))
    return list(blocks.values())


def _reference_peel(live: dict, track) -> list:
    """Pivot columns of the peel, deleting from live ({(row, col): value},
    in entry order) in place.

    First every +-1 entry alone in its column: it deletes its row, and each
    other column j of that row takes col_j -= (b.v).col_c on track.  Then
    every +-1 entry alone in its row: it deletes its column.  Each pass is a
    queue of lines in first-appearance order, and a line that a deletion
    leaves with one unit entry joins its end.  Lines are found by scanning
    live, in entry order.
    """

    def line(axis, k):
        return [key for key in live if key[axis] == k]

    def unit_alone(axis, k):
        keys = line(axis, k)
        return len(keys) == 1 and abs(live[keys[0]]) == 1

    pivots = []
    queue = [c for c in dict.fromkeys(c for _, c in live) if unit_alone(1, c)]
    for c in queue:
        if not unit_alone(1, c):
            continue
        ((r, _),) = line(1, c)
        v = live.pop((r, c))
        for key in line(0, r):
            b = live.pop(key)
            j = key[1]
            if track is not None:
                for i, x in track[c].items():
                    y = track[j].get(i, 0) - b * v * x
                    track[j][i] = y
                    if not y:
                        del track[j][i]
            if unit_alone(1, j):
                queue.append(j)
        pivots.append(c)
    queue = [r for r in dict.fromkeys(r for r, _ in live) if unit_alone(0, r)]
    for r in queue:
        if not unit_alone(0, r):
            continue
        ((_, c),) = line(0, r)
        del live[(r, c)]
        for key in line(1, c):
            del live[key]
            if unit_alone(0, key[0]):
                queue.append(key[0])
        pivots.append(c)
    return pivots


def reference_diagonalize(matrix: SparseMatrix, track=None):
    """(pivot values, pivot columns) of the reference Smith elimination;
    track, when given, receives every column operation.

    The rows left by the peel keep the order in which they first appear
    among the matrix's entries: blocks come in the order of their first such
    row, and each block's rows in that order."""
    first = {r: k for k, r in enumerate(dict.fromkeys(r for r, _ in matrix.entries))}
    rest = SparseMatrix(matrix.rows, matrix.cols)
    rest.entries = dict(matrix.entries)
    pivot_cols = _reference_peel(rest.entries, track)
    values = [1] * len(pivot_cols)
    blocks = sorted(_blocks(rest), key=lambda b: min(first[r] for (r, _), _ in b))
    for block in blocks:
        rows = {}
        cols = {}
        for (r, c), v in sorted(block, key=lambda e: first[e[0][0]]):
            rows.setdefault(r, {})[c] = v
        for (r, c), v in block:
            cols.setdefault(c, {})[r] = v
        while rows:
            # drop empty rows/cols left behind by eliminations
            for r in [r for r, row in rows.items() if not row]:
                del rows[r]
            for c in [c for c, col in cols.items() if not col]:
                del cols[c]
            if not rows:
                break
            r0, c0 = _pick_pivot(rows, cols)
            while True:
                _clear(rows, cols, r0, c0)
                if len(rows[r0]) == 1:
                    break
                _clear(cols, rows, c0, r0, track)
                if len(cols[c0]) == 1:
                    break
            # the pivot is now alone in its row and its column
            values.append(abs(rows[r0][c0]))
            pivot_cols.append(c0)
            del rows[r0], cols[c0]
    return values, pivot_cols
