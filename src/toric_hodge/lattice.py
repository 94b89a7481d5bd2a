"""Exact integer polyhedral geometry.

Everything in this module is integer; there is no floating point and no
rational arithmetic anywhere.  Lattice vectors are plain tuples of ints.
One fraction-free elimination (Bareiss, `_eliminate`) gives ranks,
independent rows, determinants and inverses, and one unimodular column
reduction that carries its own inverse (`row_lattice`) gives saturations
and kernels.  Vector helpers map `operator` functions and raise ValueError
on a length mismatch.  The double description (`_double_description`)
returns extreme rays with their incidence masks, so a hull reads its
vertices off its facets with no rank test; it meets the points farthest
from their centroid first, and its starting simplex and that simplex's
rays come from one elimination.  Full-dimensional objects are solved in
ambient coordinates; only lower-dimensional ones go through a saturation.
All of it is sized for dimension about 6.

Lattice points are counted from levels of exact coordinate projections,
which come from one of two places.  A polytope given by its vertices has
its projections read off hulls of the projected vertices
(`projection_levels`), once for every nonnegative combination of the
summands of a Minkowski sum.  The H(s) walk instead carries a
Fourier-Motzkin cascade that `extend_cascade` grows by one row, combining
at each level only the rows that are new or tighter, so a walk that adds
one constraint per step never eliminates from scratch (Schrijver, *Theory
of Linear and Integer Programming*, section 12.2).  Either way one sweep
(`_count_levels`) runs over the outer dim - 3 levels, then over the next
coordinate as a plain loop that steps every row's partial sum, and counts
the last two coordinates in closed form: each envelope piece of the
bounds is one floor sum sum floor((a*i + b) / m), computed by a
Euclid-like reduction (Beck and Robins, *Computing the Continuous
Discretely*, ch. 1 and 8).
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import product
from math import gcd
from operator import add, and_, floordiv, mul, sub

Vector = tuple  # tuple of ints


# ---------------------------------------------------------------------------
# small vector / matrix helpers


def dot(a, b):
    if len(a) != len(b):
        raise ValueError("vectors of different lengths")
    return sum(map(mul, a, b))


def vec_sub(a, b):
    if len(a) != len(b):
        raise ValueError("vectors of different lengths")
    return tuple(map(sub, a, b))


def vec_add(a, b):
    if len(a) != len(b):
        raise ValueError("vectors of different lengths")
    return tuple(map(add, a, b))


def vec_neg(a):
    return tuple(-x for x in a)


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


def mat_vec(a, v):
    return tuple([dot(row, v) for row in a])


def vec_mat(v, a):
    if len(v) != len(a):
        raise ValueError("vector and matrix of different lengths")
    return tuple([sum(map(mul, v, col)) for col in zip(*a)])


def _eliminate(rows):
    """Gauss-Jordan elimination of an integer matrix without fractions (Bareiss).

    Returns (a, pivots, d): the reduced rows, the pivot columns in order and
    the last pivot d.  Each entry of `a` is a minor of the input, so every
    division is exact.  Row i < rank ends with d in column pivots[i] and 0
    in the other pivot columns; the rows from the rank on are zero.  A row
    swap negates one of the two rows, so a square invertible B has
    d = det(B), and eliminating [B | I] leaves det(B) * B^-1 on the right.
    """
    a = [list(row) for row in rows]
    pivots = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], [-x for x in a[r]]
        top = a[r]
        d = top[col]
        for i, row in enumerate(a):
            if i != r:
                c = row[col]
                a[i] = [(d * x - c * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        prev = d
    return a, pivots, prev


def rank_of(rows) -> int:
    """Rank of a matrix given as an iterable of integer rows."""
    return len(_eliminate(rows)[1])


def independent_rows(rows):
    """Indices of a lexicographically-first maximal independent subset: the
    pivot columns of the transpose."""
    return _eliminate([list(col) for col in zip(*rows)])[1]


def det_int(mat) -> int:
    """Determinant of a square integer matrix."""
    _, pivots, d = _eliminate(mat)
    return d if len(pivots) == len(mat) else 0


# ---------------------------------------------------------------------------
# saturations and kernels: one unimodular column reduction


class RowLattice(namedtuple("RowLattice", "dim rank right right_inverse kernel")):
    """Integer rows R (n x dim) reduced by one unimodular U, read two ways.

    R * U = [L | 0] with L in column echelon form, of `rank` columns.
    The first `rank` columns of U send a vector of the rational row span to
    its integer coordinates in a basis of the saturation, the largest
    sublattice of Z^dim with the same span (`coord`).  The remaining
    columns are an integer basis of the kernel {q in Z^dim : R q = 0}
    (`kernel`); the last rows of U^-1 give exact coordinates in that basis
    (`kernel_coord`).
    """

    __slots__ = ()

    def coord(self, v):
        full = vec_mat(v, self.right)
        if any(full[i] != 0 for i in range(self.rank, self.dim)):
            raise ValueError("vector outside the rational span")
        return tuple(full[: self.rank])

    def kernel_coord(self, q):
        full = mat_vec(self.right_inverse, q)
        if any(full[i] != 0 for i in range(self.rank)):
            raise ValueError("vector not in the kernel lattice")
        return tuple(full[self.rank :])


def row_lattice(rows, dim) -> RowLattice:
    """Saturation and kernel of integer rows in Z^dim, from one column reduction.

    The rows are taken in order.  Column operations on columns t.. clear a
    row except in column t: the pivot is the first column whose entry has
    the least nonzero absolute value, it is swapped into column t and its
    quotient multiples are subtracted from the other columns, until one
    nonzero entry is left.  Every operation is applied to U (kept by
    columns) and its inverse row operation to U^-1, so U^-1 comes for free.
    """
    a = [list(v) for v in rows]
    cols = mat_identity(dim)  # cols[j] is column j of U
    inverse = mat_identity(dim)
    t = 0
    for i, row in enumerate(a):
        rest = a[i:]  # the rows before i are zero from column t on
        while t < dim:
            nonzero = [j for j in range(t, dim) if row[j]]
            if not nonzero:
                break
            piv = min(nonzero, key=lambda j: abs(row[j]))
            if piv != t:
                for r in rest:
                    r[t], r[piv] = r[piv], r[t]
                cols[t], cols[piv] = cols[piv], cols[t]
                inverse[t], inverse[piv] = inverse[piv], inverse[t]
            for j in range(t + 1, dim):
                if row[j]:
                    c = row[j] // row[t]  # col_j -= c * col_t
                    for r in rest:
                        r[j] -= c * r[t]
                    cols[j] = [x - c * y for x, y in zip(cols[j], cols[t])]
                    inverse[t] = [x + c * y for x, y in zip(inverse[t], inverse[j])]
            if not any(row[t + 1 :]):
                t += 1
                break
    return RowLattice(
        dim=dim,
        rank=t,
        right=tuple(zip(*cols)),
        right_inverse=tuple(map(tuple, inverse)),
        kernel=tuple(map(tuple, cols[t:])),
    )


# ---------------------------------------------------------------------------
# cones: double description


def cone_extreme_rays(normals, dim):
    """Extreme rays of the pointed cone {x : n.x >= 0 for each normal}, sorted.

    The constraint matrix must have full column rank (this is exactly
    pointedness); raises ValueError otherwise.
    """
    return sorted(_double_description(normals, dim))


def _double_description(normals, dim):
    """The extreme rays as {ray: mask}, bit i set when the ray is tight on normals[i].

    Incremental double description with the combinatorial adjacency test;
    the masks are its bookkeeping, so the incidences come for free.  It
    starts from the simplex cone of the first `dim` normals, eliminated once
    as [B | I]; only when they are dependent are other rows looked for.
    """
    if dim == 0:
        return {}
    normals = [tuple(n) for n in normals]

    # the simplex cone of the basis rows: its rays are the columns of B^-1,
    # read positively scaled from det(B) * B^-1
    identity = mat_identity(dim)
    basis_idx = range(min(dim, len(normals)))
    a, pivots, d = _eliminate([list(normals[k]) + identity[i] for i, k in enumerate(basis_idx)])
    if pivots != list(range(dim)):  # B is short or singular
        basis_idx = independent_rows(normals)
        if len(basis_idx) < dim:
            raise ValueError("cone is not pointed (constraints do not have full rank)")
        a, _, d = _eliminate([list(normals[k]) + identity[i] for i, k in enumerate(basis_idx)])
    sign = 1 if d > 0 else -1
    rays = [primitive(tuple(sign * row[dim + j] for row in a)) for j in range(dim)]

    # simplex ray j is tight on every basis row but row j
    in_basis = set(basis_idx)
    full = sum(1 << k for k in basis_idx)
    masks = [full ^ (1 << k) for k in basis_idx]
    for k, n in enumerate(normals):
        if k in in_basis:
            continue
        bit = 1 << k
        vals = [dot(n, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            for i in zer:
                masks[i] |= bit
            continue
        new_rays = [rays[i] for i in pos + zer]
        new_masks = [masks[i] for i in pos] + [masks[i] | bit for i in zer]
        for ip in pos:
            for im in neg:
                # adjacent: no third ray is tight wherever both of them are
                t = masks[ip] & masks[im]
                if sum(m & t == t for m in masks) == 2:
                    comb = tuple(
                        vals[ip] * rays[im][j] - vals[im] * rays[ip][j]
                        for j in range(dim)
                    )
                    if not is_zero(comb):
                        # a positive combination of two rays is tight
                        # exactly where both of them are
                        new_rays.append(primitive(comb))
                        new_masks.append(t | bit)
        incidence = dict(zip(new_rays, new_masks))  # a repeated ray has one mask
        rays, masks = list(incidence), list(incidence.values())
    return dict(zip(rays, masks))


# ---------------------------------------------------------------------------
# the carried Fourier-Motzkin cascade, and lattice-point counts by levels


# Steps of the carried cascade that combine more row pairs fail fast: a step of
# 6.9 million pairs took 38 s and 1.4 GB.
MAX_FM_PAIRS = 200_000


def _check_pairs(pairs):
    if pairs > MAX_FM_PAIRS:
        raise ValueError(
            f"Fourier-Motzkin step combines {pairs} pairs of rows; "
            f"the supported maximum is {MAX_FM_PAIRS}"
        )


def _combine(lower, upper, k):
    """Rows free of coordinate k, one per (lower, upper) pair of rows.

    A lower row has n[k] > 0 and an upper row n[k] < 0; their positive
    combination |c_upper| * lower + c_lower * upper cancels coordinate k.
    """
    out = []
    for nl, bl in lower:
        cl, head = nl[k], nl[:k]
        for nu, bu in upper:
            cu = -nu[k]
            n = tuple([cu * x + cl * y for x, y in zip(head, nu)])
            out.append((n, cu * bl + cl * bu))
    return out


def _merge(rows, level):
    """Merge integer rows into a level {normal: bound}, keeping the tightest bound.

    A zero row that holds is dropped; one that fails makes the system
    empty, and the result is None.  A normal is divided by its gcd only
    when the gcd divides the bound, so bounds stay exact.  `level` itself
    is left as it is: it is copied when it first gains a row.  Returns
    (merged, fresh), where `fresh` is the set of normals that are new or
    tighter; `merged` is `level` when `fresh` is empty.
    """
    merged, fresh = level, set()
    for n, b in rows:
        if not any(n):
            if b > 0:
                return None
            continue
        g = gcd(*n)
        if g > 1 and b % g == 0:
            n = tuple(x // g for x in n)
            b //= g
        cur = merged.get(n)
        if cur is None or b > cur:
            if merged is level:
                merged = dict(level)
            merged[n] = b
            fresh.add(n)
    return merged, fresh


def extend_cascade(levels, normal, bound):
    """The carried cascade of a system with one more row normal.x >= bound.

    `levels[t-1]` is a dict {normal: bound} constraining (x_1 .. x_t), the
    exact rational projection of the level above it; `[{}] * dim` is the
    cascade of no rows.  The new row goes into the top level, and at each
    level only the fresh rows (new, or tighter than the level had) are
    combined with the level's rows of the opposite sign, fresh ones
    included: the combinations of the other pairs are already below.  A
    level is copied only when it gains a fresh row, so the parent's
    cascade stays as it was.  The one-coordinate level keeps only its
    tightest lower and its tightest upper row, and its emptiness test is
    one comparison.  Returns None as soon as the system is shown empty.
    """
    dim = len(levels)
    rows = [(normal, bound)]
    out = list(levels)
    for t in range(dim, 1, -1):
        merged = _merge(rows, levels[t - 1])
        if merged is None:
            return None
        level, fresh = merged
        if not fresh:
            return out
        out[t - 1] = level
        k = t - 1
        rows, old_lower, old_upper, fresh_lower, fresh_upper = [], [], [], [], []
        for row in level.items():
            n = row[0]
            c = n[k]
            if c > 0:
                (fresh_lower if n in fresh else old_lower).append(row)
            elif c < 0:
                (fresh_upper if n in fresh else old_upper).append(row)
            elif n in fresh:
                rows.append((n[:k], row[1]))
        upper = old_upper + fresh_upper
        _check_pairs(len(fresh_lower) * len(upper) + len(old_lower) * len(fresh_upper))
        rows += _combine(fresh_lower, upper, k)
        rows += _combine(old_lower, fresh_upper, k)
    if dim == 0:
        return None if any(b > 0 for _, b in rows) else out
    # the tightest lower (c > 0) and upper (c < 0) rows c*x >= b, whose
    # bounds b/c are compared by cross-multiplication
    lo = hi = None
    for row in levels[0].items():
        if row[0][0] > 0:
            lo = row
        else:
            hi = row
    changed = False
    for row in rows:
        (c,), b = row
        if c > 0:
            if lo is None or b * lo[0][0] > lo[1] * c:
                lo, changed = row, True
        elif c < 0:
            if hi is None or b * hi[0][0] < hi[1] * c:
                hi, changed = row, True
        elif b > 0:
            return None
    if not changed:
        return out
    if lo is not None and hi is not None and _combine([lo], [hi], 0)[0][1] > 0:
        return None
    out[0] = dict(row for row in (lo, hi) if row is not None)
    return out


def cascade_is_bounded(levels) -> bool:
    """Is the nonempty system of a carried cascade bounded?

    Fourier-Motzkin is linear in the bounds, so the levels' rows with zero
    bounds project the recession cone: it is {0} exactly when every level has
    rows of both signs on its last coordinate.
    """
    return all(
        any(n[t] > 0 for n in level) and any(n[t] < 0 for n in level)
        for t, level in enumerate(levels)
    )


def _interval(level, prefix):
    """Integer interval (lo, hi) of the next coordinate after `prefix`, or None.

    `level` constrains the len(prefix) + 1 leading coordinates; None means
    no integer value fits (a violated constant row or an empty interval).
    """
    t = len(prefix)
    lo = hi = None
    for n, b in level:
        c = n[t]
        rest = b - sum(map(mul, n, prefix))
        if c > 0:
            cand = -((-rest) // c)  # ceil(rest / c)
            if lo is None or cand > lo:
                lo = cand
        elif c < 0:
            cand = rest // c  # floor for negative divisor
            if hi is None or cand < hi:
                hi = cand
        elif rest > 0:
            return None
    if lo is None or hi is None or lo > hi:
        return None
    return lo, hi


def _prefixes(levels, depth):
    """Integer points of the projection onto the first `depth` coordinates.

    Sweeps levels[0 .. depth-1] in lexicographic order, each coordinate over
    its interval given the ones before it.  Every point is the same list,
    refilled; copy it to keep it.
    """
    prefix = []

    def sweep(t):
        if t == depth:
            yield prefix
            return
        bounds = _interval(levels[t], prefix)
        if bounds is None:
            return
        for v in range(bounds[0], bounds[1] + 1):
            prefix.append(v)
            yield from sweep(t + 1)
            prefix.pop()

    return sweep(0)


def _floor_sum(n, m, a, b):
    """Sum of floor((a*i + b) / m) for 0 <= i < n, with m > 0.

    Euclid-like reduction: split off the integer parts of a/m and b/m, then
    count the lattice points under the remaining line with the roles of
    a and m swapped.  O(log m) steps; a and b may be negative.
    """
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _envelope(lines, lo, hi):
    """Pieces of the lower envelope of lines (a*u + b) / m, m > 0, on integers.

    Yields (start, end, line) covering lo..hi in order, where `line` is
    lowest at every integer u in [start, end].  At each start the lowest
    line is chosen, ties going to the smaller slope, which stays lowest
    longer; its piece ends before the first integer at which a less steep
    line is strictly lower.  At most len(lines) pieces, each found in
    O(len(lines)) integer comparisons.
    """
    u = lo
    while u <= hi:
        best = lines[0]
        a, b, m = best
        for line in lines[1:]:
            a2, b2, m2 = line
            d = (a2 * u + b2) * m - (a * u + b) * m2
            if d < 0 or (d == 0 and a2 * m < a * m2):
                best = line
                a, b, m = line
        end = hi
        for a2, b2, m2 in lines:
            drop = a * m2 - a2 * m  # > 0 when the other line is less steep
            if drop > 0:
                # the other line is strictly lower from u > (b2*m - b*m2) / drop
                cross = (b2 * m - b * m2) // drop
                if cross < end:
                    end = cross
        yield u, end, best
        u = end + 1


def _plane_sum(lo, hi, sides, parts):
    """Integer points (u, v) with lo <= u <= hi, counted in closed form.

    [lo, hi] is the u-interval of the exact rational projection of the
    v-bounds, so every integer u there has v-count
    min_j floor(U_j(u)) - max_i ceil(L_i(u)) + 1 >= 0.  Writing
    -ceil(x) = floor(-x), both terms are minima of floors of lines in u,
    and the count is a sum of floor sums, one per envelope piece.

    `sides` holds the upper and the lower v-bounds, each as (k, lines):
    line i is (a, m) and reads (a*u + parts[k+i]) / m.  For a row n.x >= b
    with v-coefficient c and B = (n.x without its u and v terms) - b, that
    is v <= (n_u*u + B) / |c| when c < 0, and -ceil(lower bound) =
    floor((n_u*u + B) / c) when c > 0.
    """
    total = hi - lo + 1
    for k, lines in sides:
        if len(lines) == 1:  # no envelope
            a, m = lines[0]
            total += _floor_sum(hi - lo + 1, m, a, a * lo + parts[k])
            continue
        lines = [(a, b, m) for (a, m), b in zip(lines, parts[k:])]
        for start, end, (a, b, m) in _envelope(lines, lo, hi):
            total += _floor_sum(end - start + 1, m, a, a * start + b)
    return total


def _count_levels(levels, dim):
    """Number of integer points of a non-empty, bounded system, by levels.

    `levels[t-1]` is an iterable of the (normal, bound) rows constraining
    (x_1 .. x_t), each level the exact rational projection of the next: the
    facets of the projections of a polytope (`projection_levels`) or a
    carried Fourier-Motzkin cascade (`extend_cascade`).  The last two
    coordinates (u, v) are counted in closed form by floor sums
    (`_plane_sum`), so a 2-D region costs the same however large it is.
    Above them the outer dim - 3 levels are swept (`_prefixes`), and
    w = x[dim-3] is a plain loop in which each u- and v-row steps its
    partial sum by its w-coefficient.
    """
    if dim == 0:
        return 1
    if dim == 1:
        bounds = _interval(levels[0], [])
        return 0 if bounds is None else bounds[1] - bounds[0] + 1
    # v-bounds (rows with no v-coefficient are already part of the outer level)
    sides = (
        [(n, b, -n[-1]) for n, b in levels[-1] if n[-1] < 0],
        [(n, b, n[-1]) for n, b in levels[-1] if n[-1] > 0],
    )
    # u-bounds c*u >= -B; rows with no u-coefficient are in the level of w
    lower = [(n, b) for n, b in levels[-2] if n[-1] > 0]
    upper = [(n, b) for n, b in levels[-2] if n[-1] < 0]
    rows = lower + upper + [(n, b) for side in sides for n, b, _ in side]
    first = len(lower)
    cuts = (first + len(upper), len(rows) - len(sides[1]))  # where the sides start
    lines = [(k, [(n[-2], m) for n, _, m in side]) for k, side in zip(cuts, sides)]
    if dim == 2:
        bounds = _interval(levels[0], [])
        return 0 if bounds is None else _plane_sum(*bounds, lines, [-b for _, b in rows])
    t = dim - 3  # w = x[t], u = x[t+1], v = x[t+2]
    steps = [n[t] for n, _ in rows]
    lower_c, upper_m = [n[-1] for n, _ in lower], [-n[-1] for n, _ in upper]
    total = 0
    for prefix in _prefixes(levels, t):
        bounds = _interval(levels[t], prefix)
        if bounds is None:
            continue
        # B = n[:t+1].(prefix, w) - b
        parts = [sum(map(mul, n, prefix)) - b + n[t] * bounds[0] for n, b in rows]
        for _ in range(bounds[0], bounds[1] + 1):
            lo = -min(map(floordiv, parts, lower_c))
            hi = min(map(floordiv, parts[first:], upper_m))
            if lo <= hi:
                total += _plane_sum(lo, hi, lines, parts)
            parts = list(map(add, parts, steps))
    return total


# ---------------------------------------------------------------------------
# polytopes


class Polytope(namedtuple("Polytope", "vertices facets dim ambient_dim")):
    """Bounded polyhedron with both representations.

    `facets` lists (normal, bound) constraints meaning normal.x >= bound,
    with a primitive integer normal and an integer bound; for
    lower-dimensional polytopes the affine hull appears as pairs of
    opposite inequalities.  `dim` is the affine dimension.
    """

    __slots__ = ()

    def contains(self, point) -> bool:
        return all(dot(n, point) >= b for n, b in self.facets)


def convex_hull(points) -> Polytope:
    """Exact convex hull of lattice points: vertices, facets, affine dim.

    The facets come from the double description of the dual cone, fed the
    points farthest from their centroid first, so that it meets the final
    facets early (Fukuda and Prodon, 1996).  A full-dimensional hull is
    solved on the lifted differences in ambient coordinates; a lower one in
    a basis of the saturation of its differences, with its facet normals
    mapped back.  A point is a vertex exactly when it lies on `dim` or more
    facets and no other point lies on all.
    """
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed dimension")
    # far from their centroid first (scaled by n), ties in lexicographic order
    centre, n = [sum(col) for col in zip(*pts)], len(pts)
    pts.sort(key=lambda p: -sum([(n * x - c) ** 2 for x, c in zip(p, centre)]))
    p0 = pts[0]
    # facets of the full-dimensional (reduced) polytope: extreme rays of the
    # dual cone {(a, c) : a.r + c >= 0 for every (reduced) point r}; bit i of
    # a facet's mask is set when pts[i] lies on it
    diffs = [vec_sub(p, p0) for p in pts]
    rank, eqs = ambient, []
    try:  # a full-dimensional hull, in ambient coordinates
        incidence = _double_description([d + (1,) for d in diffs], ambient + 1)
    except ValueError:  # the lifted differences have rank below ambient + 1
        # the primitive rows of the reduced echelon form depend only on the
        # affine hull, so the Polytope depends only on the hull, not on the
        # points that span it
        a, pivots, _ = _eliminate(diffs[1:])
        rank = len(pivots)
        span = row_lattice([primitive(row) for row in a[:rank]], ambient)
        # affine-hull equalities from the kernel of the difference matrix
        for u in span.kernel:
            u = primitive(u)
            val = dot(u, p0)
            eqs.append((u, val))
            eqs.append((vec_neg(u), -val))
        incidence = _double_description([span.coord(d) + (1,) for d in diffs], rank + 1)
    if rank == 0:
        return Polytope((p0,), tuple(sorted(eqs)), dim=0, ambient_dim=ambient)

    facets = list(eqs)
    for fr in incidence:
        a, c = fr[:rank], fr[rank]
        if rank < ambient:  # back to the ambient lattice: U's first `rank` columns
            a = tuple([sum(map(mul, row, a)) for row in span.right])
        # the facet passes through a lattice vertex v with bound = <a, v>,
        # so gcd(a) divides the bound
        g = gcd(*a)
        facets.append((tuple(x // g for x in a), (dot(a, p0) - c) // g))

    vertices = []
    for i, p in enumerate(pts):
        on = [m for m in incidence.values() if m >> i & 1]
        if len(on) >= rank and reduce(and_, on) == 1 << i:
            vertices.append(p)

    return Polytope(
        vertices=tuple(sorted(vertices)),
        facets=tuple(sorted(facets)),
        dim=rank,
        ambient_dim=ambient,
    )


def minkowski_support(supports, *, vertices: bool = False) -> Polytope:
    """Convex hull of the pointwise Minkowski sum of finite point sets.

    The hull of a Minkowski sum is the hull of the sums of vertices, so with
    more than one support only the vertices of each support's hull are added.
    `vertices` says that each support is already the vertex set of its hull.
    """
    if not supports:
        raise ValueError("no supports given")
    for s in supports:
        if not s:
            raise ValueError("empty support set")
    if len(supports) > 1 and not vertices:
        supports = [convex_hull(s).vertices for s in supports]
    sums = set()
    for combo in product(*supports):
        total = tuple(combo[0])
        for q in combo[1:]:
            total = vec_add(total, q)
        sums.add(total)
    return convex_hull(sums)


def projection_levels(top, vertices, supports):
    """Facets of the projections of Delta = sum_i conv(supports[i]), by level.

    Delta is full-dimensional, with the given vertices; `top` lists its
    facets as (u, h), where h[i] = min over supports[i] of <u, x> is the
    support function of the i-th summand at u.  levels[t-1] lists the
    facets of the projection of Delta onto (x_1 .. x_t) in the same way:
    below the top they are the extreme rays (u, b) of the dual cone
    {(u, b) : <u, v> + b >= 0} of the projected vertices v, and the
    one-coordinate level is +-x_1.  For every c >= 0 the projection of
    sum_i c_i Delta_i is sum_i c_i proj(Delta_i), and the normal fan of
    proj(Delta) refines its normal fan, so on every level the rows
    <u, x> >= sum_i c_i h_i(u) are its exact projections (`_count_levels`),
    with nothing to eliminate.
    """
    dim = len(top[0][0])
    normals = [[(1,), (-1,)]] if dim > 1 else []
    for t in range(2, dim):
        dual = cone_extreme_rays({v[:t] + (1,) for v in vertices}, t + 1)
        normals.append([a[:t] for a in dual])
    levels = [
        [(u, tuple(min(sum(map(mul, u, v)) for v in s) for s in supports)) for u in level]
        for level in normals
    ]
    return levels + [top]


# ---------------------------------------------------------------------------
# affine lattice reduction


AffineReduction = namedtuple("AffineReduction", "rank supports")  # supports in Z^rank


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
    span = row_lattice(everything, dim)
    rank = span.rank
    if rank == dim:
        # the saturation is the whole lattice; keep identity coordinates so
        # that reducing an already reduced system is a fixpoint
        reduced = tuple(tuple(sorted(s)) for s in translated)
    else:
        rebased = []
        for s in translated:
            coords = sorted(span.coord(q) for q in s)
            base = coords[0]
            rebased.append(tuple(vec_sub(q, base) for q in coords))
        reduced = tuple(rebased)
    return AffineReduction(rank=rank, supports=reduced)
