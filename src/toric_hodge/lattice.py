"""Exact integer and rational polyhedral geometry.

Everything in this module works over arbitrary-precision integers and
`fractions.Fraction`; there is no floating point anywhere.  Lattice vectors
are plain tuples of ints, rational vectors are tuples of Fractions.  The
polyhedral machinery (double description for extreme rays, Fourier-Motzkin
elimination for coordinate projections) is written for desk-scale inputs:
dimensions up to about 6 and a few dozen constraints, which is all the
counting formulas downstream ever need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul

Vector = tuple  # tuple of ints (or Fractions for rational data)


# ---------------------------------------------------------------------------
# small vector / matrix helpers


def dot(a, b):
    return sum(x * y for x, y in zip(a, b, strict=True))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(c, a):
    return tuple(c * x for x in a)


def is_zero(a):
    return all(x == 0 for x in a)


def primitive(v: Vector) -> Vector:
    """Divide an integer vector by the gcd of its entries.

    Raises ValueError on the zero vector, which generates no ray.
    """
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def vec_mat(v, a):
    if not a:
        return ()
    cols = len(a[0])
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(cols))


def rank_of(rows) -> int:
    """Rank of a matrix given as an iterable of integer/Fraction rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [x - c * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def independent_rows(rows, target_rank=None):
    """Indices of a lexicographically-first maximal independent subset."""
    chosen = []
    basis = []  # reduced Fraction rows
    for idx, row in enumerate(rows):
        cand = [Fraction(x) for x in row]
        for b in basis:
            lead = next((j for j in range(len(b)) if b[j] != 0), None)
            if lead is not None and cand[lead] != 0:
                c = cand[lead] / b[lead]
                cand = [x - c * y for x, y in zip(cand, b)]
        if any(x != 0 for x in cand):
            chosen.append(idx)
            basis.append(cand)
            if target_rank is not None and len(chosen) == target_rank:
                break
    return chosen


def invert_unimodular(mat):
    """Exact inverse of a square integer matrix with determinant +-1."""
    n = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                c = work[i][col]
                work[i] = [x - c * y for x, y in zip(work[i], work[col])]
    out = []
    for i in range(n):
        row = work[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append([int(x) for x in row])
    return out


def det_int(mat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """left * original * right = diag(diag), with unimodular left/right."""

    left: tuple
    diag: tuple
    right: tuple

    def check(self, original) -> bool:
        prod = mat_mul(mat_mul([list(r) for r in self.left], [list(r) for r in original]),
                       [list(r) for r in self.right])
        rows = len(prod)
        cols = len(prod[0]) if prod else 0
        for i in range(rows):
            for j in range(cols):
                want = self.diag[i] if i == j and i < len(self.diag) else 0
                if prod[i][j] != want:
                    return False
        return True


def smith_normal_form(mat) -> SmithDecomposition:
    """Smith normal form with transform matrices.

    Deterministic elimination: the pivot is always the nonzero entry of
    smallest absolute value in the remaining block, ties broken row-major.
    Diagonal entries come out nonnegative with d_i dividing d_{i+1}.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(row) for row in mat]
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    left = mat_identity(rows)
    right = mat_identity(cols)

    def row_op(i, j, c):  # row_i -= c * row_j
        a[i] = [x - c * y for x, y in zip(a[i], a[j])]
        left[i] = [x - c * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, c):  # col_i -= c * col_j
        for r in range(rows):
            a[r][i] -= c * a[r][j]
        for r in range(cols):
            right[r][i] -= c * right[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            right[r][i], right[r][j] = right[r][j], right[r][i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        while True:
            i, j = piv
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                left[t] = [-x for x in left[t]]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
            if any(a[i][t] != 0 for i in range(t + 1, rows)) or any(
                a[t][j] != 0 for j in range(t + 1, cols)
            ):
                dirty = True
            # divisibility: pivot must divide every remaining entry
            if not dirty:
                fixed = False
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if a[i][j] % a[t][t] != 0:
                            row_op(t, i, -1)  # add row i to row t
                            fixed = True
                            break
                    if fixed:
                        break
                if not fixed:
                    break
            piv = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        piv = (i, j)
        t += 1

    diag = tuple(a[i][i] for i in range(limit))
    return SmithDecomposition(
        left=tuple(tuple(r) for r in left),
        diag=diag,
        right=tuple(tuple(r) for r in right),
    )


def saturation_data(vectors, dim):
    """Saturated lattice of the span of integer vectors.

    Returns (rank, coord) where coord maps an integer vector lying in the
    rational span to its integer coordinates in a basis of the saturation
    (the largest sublattice of Z^dim with the same rational span).
    """
    if not vectors:
        mat = [[0] * dim] if dim else [[]]
        snf = smith_normal_form(mat)
        rank = 0
    else:
        snf = smith_normal_form([list(v) for v in vectors])
        rank = sum(1 for d in snf.diag if d != 0)
    right = [list(r) for r in snf.right]

    def coord(v):
        full = vec_mat(v, right)
        if any(full[i] != 0 for i in range(rank, dim)):
            raise ValueError("vector outside the rational span")
        return tuple(full[:rank])

    return rank, coord


def kernel_basis_columns(rows_mat, dim):
    """Integer basis of {q in Z^dim : R q = 0} for integer rows R.

    The returned tuple (basis, coord) gives basis vectors (columns of the
    right Smith transform) and an exact coordinate map on the kernel.
    """
    if not rows_mat:
        basis = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
        return basis, lambda v: tuple(v)
    snf = smith_normal_form([list(r) for r in rows_mat])
    rank = sum(1 for d in snf.diag if d != 0)
    right = [list(r) for r in snf.right]
    rinv = invert_unimodular(right)
    basis = [tuple(right[i][j] for i in range(dim)) for j in range(rank, dim)]

    def coord(v):
        full = mat_vec(rinv, v)
        if any(full[i] != 0 for i in range(rank)):
            raise ValueError("vector not in the kernel lattice")
        return tuple(full[rank:])

    return basis, coord


# ---------------------------------------------------------------------------
# cones: double description


def cone_extreme_rays(normals, dim):
    """Extreme rays of the pointed cone {x : n.x >= 0 for each normal}.

    The constraint matrix must have full column rank (this is exactly
    pointedness); raises ValueError otherwise.  Classic incremental double
    description with the combinatorial adjacency test.
    """
    if dim == 0:
        return []
    normals = [tuple(n) for n in normals]
    basis_idx = independent_rows(normals, target_rank=dim)
    if len(basis_idx) < dim:
        raise ValueError("cone is not pointed (constraints do not have full rank)")

    b_mat = [list(normals[i]) for i in basis_idx]
    binv = _fraction_inverse(b_mat)
    rays = []
    for j in range(dim):
        col = [binv[i][j] for i in range(dim)]
        denlcm = 1
        for x in col:
            denlcm = denlcm * x.denominator // gcd(denlcm, x.denominator)
        ray = tuple(int(x * denlcm) for x in col)
        if not is_zero(ray):
            rays.append(primitive(ray))

    processed = [normals[i] for i in basis_idx]
    rest = [normals[i] for i in range(len(normals)) if i not in set(basis_idx)]

    def tight_mask(ray):
        m = 0
        for k, n in enumerate(processed):
            if dot(n, ray) == 0:
                m |= 1 << k
        return m

    masks = [tight_mask(r) for r in rays]
    for n in rest:
        vals = [dot(n, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            processed.append(n)
            masks = [tight_mask(r) for r in rays]
            continue
        new_rays = [rays[i] for i in pos + zer]
        for ip in pos:
            for im in neg:
                t = masks[ip] & masks[im]
                adjacent = True
                for io in range(len(rays)):
                    if io in (ip, im):
                        continue
                    if masks[io] & t == t:
                        adjacent = False
                        break
                if adjacent:
                    comb = tuple(
                        vals[ip] * rays[im][j] - vals[im] * rays[ip][j]
                        for j in range(dim)
                    )
                    if not is_zero(comb):
                        new_rays.append(primitive(comb))
        processed.append(n)
        seen = set()
        rays = []
        for r in new_rays:
            if r not in seen:
                seen.add(r)
                rays.append(r)
        if not rays:
            break
        masks = [tight_mask(r) for r in rays]
    return sorted(rays)


def _fraction_inverse(mat):
    n = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                c = work[i][col]
                work[i] = [x - c * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


# ---------------------------------------------------------------------------
# rational polyhedra


@dataclass(frozen=True)
class RationalPolyhedron:
    """Intersection of half-spaces {x : <normal, x> >= bound}."""

    constraints: tuple  # tuple of (normal: int tuple, bound: int or Fraction)
    dim: int

    def __post_init__(self):
        for n, _ in self.constraints:
            if len(n) != self.dim:
                raise ValueError("constraint dimension mismatch")

    def contains(self, point) -> bool:
        return all(dot(n, point) >= b for n, b in self.constraints)


def _int_constraints(constraints):
    """Scale (normal, bound) pairs so every number is an integer."""
    out = []
    for n, b in constraints:
        if isinstance(b, int):
            out.append((tuple(int(x) for x in n), b))
            continue
        b = Fraction(b)
        mult = b.denominator
        out.append((tuple(int(x) * mult for x in n), int(b * mult)))
    return out


def polyhedron_vertices(region: RationalPolyhedron):
    """Exact vertex enumeration of a polyhedron with trivial recession cone.

    Returns the (possibly empty) list of vertices as Fraction tuples.  The
    caller is responsible for having checked boundedness; a ray in the
    homogenization is reported as an internal error.
    """
    dim = region.dim
    cons = _int_constraints(region.constraints)
    hom = [n + (-b,) for n, b in cons]
    hom.append(tuple([0] * dim + [1]))
    rays = cone_extreme_rays(hom, dim + 1)
    verts = []
    for r in rays:
        if r[dim] == 0:
            raise ValueError("unexpected recession ray during vertex enumeration")
        verts.append(tuple(Fraction(x, r[dim]) for x in r[:dim]))
    return sorted(verts)


@lru_cache(maxsize=65536)
def _recession_trivial_cached(normals, dim) -> bool:
    if dim == 0:
        return True
    if not normals or rank_of(normals) < dim:
        return False  # the recession cone contains a line
    return not cone_extreme_rays(normals, dim)


def recession_is_trivial(region: RationalPolyhedron) -> bool:
    """Exact test that {x : <normal,x> >= 0 for all constraints} = {0}.

    The answer depends only on the constraint normals, so it is cached;
    counting the same combinatorial region for many different bounds pays
    for the cone computation once.
    """
    normals = tuple(sorted(n for n, _ in _int_constraints(region.constraints)))
    return _recession_trivial_cached(normals, region.dim)


def _fm_eliminate_last(constraints, dim):
    """Fourier-Motzkin elimination of the last coordinate.

    Input and output constraints are integer (normal, bound) pairs meaning
    normal.x >= bound.  Returns None if a contradictory constant constraint
    appears (empty polyhedron).
    """
    k = dim - 1
    lower, upper, out = [], [], []
    for n, b in constraints:
        c = n[k]
        if c > 0:
            lower.append((n, b))
        elif c < 0:
            upper.append((n, b))
        else:
            out.append((n[:k], b))
    for nl, bl in lower:
        cl = nl[k]
        for nu, bu in upper:
            cu = -nu[k]
            n = tuple(cu * x + cl * y for x, y in zip(nl[:k], nu[:k]))
            out.append((n, cu * bl + cl * bu))
    norm = {}
    for n, b in out:
        if not any(n):
            if b > 0:
                return None
            continue
        g = gcd(*n)
        # keep bounds exact: divide only when the gcd divides the bound
        if g > 1 and b % g == 0:
            n = tuple(x // g for x in n)
            b //= g
        cur = norm.get(n)
        if cur is None or b > cur:
            norm[n] = b
    return sorted(norm.items())


def is_feasible(region: RationalPolyhedron) -> bool:
    """Exact test that a polyhedron has a rational point.

    Eliminates every coordinate by Fourier-Motzkin; the system is infeasible
    exactly when a contradictory constant constraint appears on the way.
    """
    cur = _int_constraints(region.constraints)
    for t in range(region.dim, 0, -1):
        cur = _fm_eliminate_last(cur, t)
        if cur is None:
            return False
    return all(b <= 0 for _, b in cur)


def _integer_runs(cons, dim):
    """Sweep the integer points of a bounded integer system, dim >= 1.

    The exact Fourier-Motzkin projections give the bounding interval at
    every level of the bounding box, and at the innermost level the interval
    over the original constraints is precisely the exact membership test.
    Empty systems fall out of the cascade (a contradictory constant
    constraint or an empty interval).  Yields runs (prefix, lo, hi): the
    points prefix + (v,) for lo <= v <= hi, in lexicographic order.  The
    prefix is a list that the sweep reuses; copy it to keep it.
    """
    # cascade of projections onto the first t coordinates, t = dim .. 1;
    # levels[t-1] constrains (x_1 .. x_t) and levels[dim-1] is the original
    # system, so the innermost interval is an exact membership test.
    levels = [sorted(set(cons))]
    cur = cons
    for t in range(dim, 1, -1):
        cur = _fm_eliminate_last(cur, t)
        if cur is None:
            return
        levels.append(cur)
    levels.reverse()

    prefix = []

    def bounds_for(level_cons, t):
        lo, hi = None, None
        for n, b in level_cons:
            c = n[t - 1]
            rest = b - sum(map(mul, n, prefix))  # prefix holds t - 1 values
            if c > 0:
                cand = -((-rest) // c)  # ceil(rest / c)
                if lo is None or cand > lo:
                    lo = cand
            elif c < 0:
                cand = rest // c  # floor for negative divisor
                if hi is None or cand < hi:
                    hi = cand
            elif rest > 0:
                return None, None
        return lo, hi

    def sweep(t):
        lo, hi = bounds_for(levels[t - 1], t)
        if lo is None or hi is None or lo > hi:
            return
        if t == dim:
            yield prefix, lo, hi
            return
        for v in range(lo, hi + 1):
            prefix.append(v)
            yield from sweep(t + 1)
            prefix.pop()

    yield from sweep(1)


def lattice_points(region: RationalPolyhedron):
    """All integer points of a polyhedron, or an unbounded flag.

    Boundedness is decided exactly from the recession cone of the constraint
    system (pointedness via double description, cached per normal set).
    Returns (bounded, points); points are sorted lexicographically.
    """
    if not recession_is_trivial(region):
        return False, []
    cons = _int_constraints(region.constraints)
    if region.dim == 0:
        return True, ([()] if all(b <= 0 for _, b in cons) else [])
    points = []
    for prefix, lo, hi in _integer_runs(cons, region.dim):
        base = tuple(prefix)
        points.extend(base + (v,) for v in range(lo, hi + 1))
    return True, points


def count_lattice_points(region: RationalPolyhedron):
    """Number of integer points of a polyhedron, or an unbounded flag.

    The same sweep as `lattice_points`, adding up the innermost intervals
    instead of building the points.  Returns (bounded, count).
    """
    if not recession_is_trivial(region):
        return False, 0
    cons = _int_constraints(region.constraints)
    if region.dim == 0:
        return True, int(all(b <= 0 for _, b in cons))
    return True, sum(hi - lo + 1 for _, lo, hi in _integer_runs(cons, region.dim))


# ---------------------------------------------------------------------------
# polytopes


@dataclass(frozen=True)
class Polytope:
    """Bounded polyhedron with both representations.

    `facets` lists (normal, bound) constraints meaning normal.x >= bound;
    for lower-dimensional polytopes the affine hull appears as pairs of
    opposite inequalities.  `dim` is the affine dimension.
    """

    vertices: tuple
    facets: tuple
    dim: int
    ambient_dim: int

    def contains(self, point) -> bool:
        return all(dot(n, point) >= b for n, b in self.facets)


def convex_hull(points) -> Polytope:
    """Exact convex hull of lattice points: vertices, facets, affine dim."""
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed dimension")
    p0 = pts[0]
    diffs = [vec_sub(p, p0) for p in pts[1:]]
    rank, coord = saturation_data(diffs, ambient)

    # affine-hull equalities from the kernel of the difference matrix
    eqs = []
    if rank < ambient:
        basis, _ = kernel_basis_columns(diffs if diffs else [], ambient)
        if not diffs:
            basis = [tuple(int(i == j) for i in range(ambient)) for j in range(ambient)]
        for u in basis:
            u = primitive(u)
            val = dot(u, p0)
            eqs.append((u, val))
            eqs.append((vec_neg(u), -val))

    if rank == 0:
        return Polytope(
            vertices=(p0,), facets=tuple(sorted(eqs)), dim=0, ambient_dim=ambient
        )

    reduced = [coord(vec_sub(p, p0)) for p in pts]
    # facets of the full-dimensional reduced polytope: extreme rays of the
    # dual cone {(a, c) : a.r + c >= 0 for every reduced point r}
    dual_normals = [r + (1,) for r in reduced]
    facet_rays = cone_extreme_rays(dual_normals, rank + 1)

    # map a reduced-space functional back to the ambient lattice
    snf = smith_normal_form([list(v) for v in diffs])
    right = snf.right
    t0 = tuple(vec_mat(p0, [list(r) for r in right])[:rank])

    facets = list(eqs)
    red_facets = []
    for fr in facet_rays:
        a, c = fr[:rank], fr[rank]
        red_facets.append((a, -c))
        w = tuple(
            sum(right[i][j] * a[j] for j in range(rank)) for i in range(ambient)
        )
        bound = dot(a, t0) - c
        g = 0
        for x in w:
            g = gcd(g, x)
        if g > 1 and bound % g == 0:
            w = tuple(x // g for x in w)
            bound //= g
        elif g > 1:
            w = tuple(x // g for x in w)
            bound = Fraction(bound, g)
        facets.append((w, bound))

    vertices = []
    for p, r in zip(pts, reduced):
        tight = [a for a, b in red_facets if dot(a, r) == b]
        if len(tight) >= rank and rank_of(tight) == rank:
            vertices.append(p)

    return Polytope(
        vertices=tuple(sorted(vertices)),
        facets=tuple(sorted(facets)),
        dim=rank,
        ambient_dim=ambient,
    )


def minkowski_support(supports) -> Polytope:
    """Convex hull of the pointwise Minkowski sum of finite point sets."""
    if not supports:
        raise ValueError("no supports given")
    for s in supports:
        if not s:
            raise ValueError("empty support set")
    sums = set()
    for combo in product(*supports):
        total = combo[0]
        for q in combo[1:]:
            total = vec_add(total, q)
        sums.add(total)
    return convex_hull(sums)


# ---------------------------------------------------------------------------
# affine lattice reduction


@dataclass(frozen=True)
class AffineReduction:
    rank: int
    supports: tuple  # supports rewritten in Z^rank


def affine_lattice_reduction(supports) -> AffineReduction:
    """Translate supports to the origin and rewrite them in the saturation.

    Each support is translated by its lexicographically smallest element;
    the lattice generated by all translated points is saturated (so any
    complementary torus factor splits off integrally) and the points are
    re-expressed in a basis of that saturation.
    """
    supports = [sorted(set(tuple(q) for q in s)) for s in supports]
    for s in supports:
        if not s:
            raise ValueError("empty support set")
    dim = len(supports[0][0]) if supports and supports[0] else 0
    translated = []
    for s in supports:
        base = s[0]
        translated.append([vec_sub(q, base) for q in s])
    everything = [q for s in translated for q in s]
    rank, coord = saturation_data(everything, dim)
    if rank == dim:
        # the saturation is the whole lattice; keep identity coordinates so
        # that reducing an already reduced system is a fixpoint
        reduced = tuple(tuple(sorted(s)) for s in translated)
    else:
        rebased = []
        for s in translated:
            coords = sorted(coord(q) for q in s)
            base = coords[0]
            rebased.append(tuple(vec_sub(q, base) for q in coords))
        reduced = tuple(rebased)
    return AffineReduction(rank=rank, supports=reduced)
