"""Independent oracles.

Nothing here may share code paths with the library: the Hilbert oracle
recomputes the inclusion-exclusion coefficients straight from their
alternating-count definition and scans boxes found by its own small
Fourier-Motzkin routine; the chi_y oracle for complete intersections in
projective space is sympy series extraction from a closed generating
function; the weighted series oracle multiplies written-out truncated
series term by term.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor, gcd

import sympy as sp


# --- brute-force Hilbert function -------------------------------------------


@lru_cache(maxsize=None)
def chi_table_by_definition(fan):
    """chi_I for every ray subset, from the alternating subset count.

    For each nonempty collection K of maximal cones, the intersection of
    their ray sets contributes (-1)^(|K|-1) to every I containing it.
    """
    l = len(fan.maximal_cones)
    r = len(fan.rays)
    J = [frozenset(c) for c in fan.maximal_cones]
    contributions = []
    for size in range(1, l + 1):
        for K in combinations(range(l), size):
            inter = set(J[K[0]])
            for idx in K[1:]:
                inter &= J[idx]
            contributions.append(((-1) ** (size - 1), frozenset(inter)))
    table = {}
    for mask in range(1 << r):
        members = {j for j in range(r) if mask & (1 << j)}
        chi = sum(sign for sign, inter in contributions if inter <= members)
        if chi:
            table[mask] = chi
    return table


def _fm_coordinate_bounds(cons, dim):
    """Exact per-coordinate bounds of {x : n.x >= b}, or 'empty'.

    Standalone Fourier-Motzkin, one full elimination per coordinate.
    Returns a list of (lo, hi) Fractions with None marking an unbounded
    direction.
    """
    out = []
    for coord in range(dim):
        cur = [(tuple(n), b) for n, b in cons]
        for j in range(dim):
            if j == coord:
                continue
            pos = [(n, b) for n, b in cur if n[j] > 0]
            neg = [(n, b) for n, b in cur if n[j] < 0]
            zer = [(n, b) for n, b in cur if n[j] == 0]
            new = list(zer)
            for npos, bpos in pos:
                for nneg, bneg in neg:
                    cp, cn = npos[j], -nneg[j]
                    n2 = tuple(cn * npos[t] + cp * nneg[t] for t in range(dim))
                    new.append((n2, cn * bpos + cp * bneg))
            cur = list(set(new))
        lo = hi = None
        for n, b in cur:
            c = n[coord]
            if c > 0:
                cand = Fraction(b, c)
                lo = cand if lo is None or cand > lo else lo
            elif c < 0:
                cand = Fraction(b, c)
                hi = cand if hi is None or cand < hi else hi
            elif b > 0:
                return "empty"
        out.append((lo, hi))
    return out


def brute_h(fan, s):
    """Sum of chi over all lattice points, scanned on a provably large box.

    The box is the union of the bounding boxes of the regions attached to
    the ray subsets with nonzero chi; any point contributing to H(s) lies in
    the region of its own subset, hence in the box.
    """
    table = chi_table_by_definition(fan)
    dim = fan.dim
    r = len(fan.rays)
    los = [None] * dim
    his = [None] * dim
    nonempty = False
    for mask in table:
        cons = []
        for j, ray in enumerate(fan.rays):
            if mask & (1 << j):
                cons.append((tuple(ray), -s[j]))
            else:
                cons.append((tuple(-x for x in ray), s[j] + 1))
        bounds = _fm_coordinate_bounds(cons, dim)
        if bounds == "empty":
            continue
        if any(lo is None or hi is None for lo, hi in bounds):
            raise AssertionError("oracle hit an unbounded region with nonzero chi")
        nonempty = True
        for i, (lo, hi) in enumerate(bounds):
            los[i] = lo if los[i] is None or lo < los[i] else los[i]
            his[i] = hi if his[i] is None or hi > his[i] else his[i]
    if not nonempty:
        return 0
    import math

    ranges = [
        range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in zip(los, his)
    ]
    total = 0
    rays = fan.rays
    for q in product(*ranges):
        mask = 0
        for j in range(r):
            if sum(a * b for a, b in zip(rays[j], q)) >= -s[j]:
                mask |= 1 << j
        total += table.get(mask, 0)
    return total


def in_ray_image(rays, v):
    """Whether v = P u for an integer u, where P has the rays as its rows.

    The rays must span Q^n, so that u is unique.  Picks n independent rows
    greedily, solves P u = v on them by exact Gauss-Jordan over Fractions,
    then checks that u is integral and that P u = v holds on every row.
    """
    dim = len(rays[0])
    pivots = []  # (column, row [ray | v_i] reduced to 1 there and 0 at the others)
    for ray, x in zip(rays, v):
        row = [Fraction(a) for a in ray] + [Fraction(x)]
        for col, prow in pivots:
            row = [a - row[col] * b for a, b in zip(row, prow)]
        col = next((j for j in range(dim) if row[j]), None)
        if col is None:
            continue
        row = [a / row[col] for a in row]
        pivots = [(c, [a - p[col] * b for a, b in zip(p, row)]) for c, p in pivots]
        pivots.append((col, row))
        if len(pivots) == dim:
            break
    u = [Fraction(0)] * dim
    for col, row in pivots:
        u[col] = row[dim]
    if any(x.denominator != 1 for x in u):
        return False
    return all(sum(a * b for a, b in zip(ray, u)) == x for ray, x in zip(rays, v))


def is_nef_by_cones(fan, s):
    """Whether the divisor sum s_j D_j of a complete simplicial fan is nef.

    For every maximal cone, m_sigma with <m_sigma, p_i> = -s_i on its rays
    is solved by Cramer's rule over Fractions, and must satisfy
    <m_sigma, p_j> >= -s_j on every ray: the support function is then
    concave (Cox-Little-Schenck, Toric Varieties, 6.1 and 6.4).
    """
    for cone in fan.maximal_cones:
        rows = [list(fan.rays[i]) for i in cone]
        det = _det(rows)
        m = [
            Fraction(_det([row[:k] + [-s[i]] + row[k + 1 :] for row, i in zip(rows, cone)]), det)
            for k in range(fan.dim)
        ]
        if any(sum(a * b for a, b in zip(m, ray)) < -x for ray, x in zip(fan.rays, s)):
            return False
    return True


def brute_box_points(cons, dim, radius):
    """All integer points of a box satisfying n.x >= b constraints."""
    pts = []
    for q in product(range(-radius, radius + 1), repeat=dim):
        if all(sum(a * b2 for a, b2 in zip(n, q)) >= b for n, b in cons):
            pts.append(q)
    return sorted(pts)


def brute_count(cons, dim, box=None):
    """Number of integer points of {x : n.x >= b}, scanned on a bounding box.

    The box is given as integer (lo, hi) pairs, one per coordinate, or comes
    from the standalone Fourier-Motzkin bounds above, so the region must be
    bounded; every point of the box is tested against every constraint.
    Polytopes with many facets should be given their box (of their
    vertices, say): eliminating three coordinates of 27 facets takes a minute.
    """
    bounds = box or _fm_coordinate_bounds(cons, dim)
    if bounds == "empty":
        return 0
    if any(lo is None or hi is None for lo, hi in bounds):
        raise AssertionError("brute_count needs a bounded region")
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in bounds]
    return sum(
        all(sum(a * x for a, x in zip(n, q)) >= b for n, b in cons)
        for q in product(*ranges)
    )


# --- extreme rays by enumeration ----------------------------------------------


def _det(mat):
    """Determinant by Laplace expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
        if mat[0][j]
    )


def brute_extreme_rays(normals, dim):
    """Extreme rays of the pointed cone {x : n.x >= 0 for each normal}.

    Every extreme ray spans the kernel of some dim - 1 constraints of rank
    dim - 1, and that kernel is the line of the signed maximal minors of
    those rows (a nonzero vector exactly at rank dim - 1).  Each primitive
    sign of each such line that satisfies every constraint is a ray.
    """
    rays = set()
    for rows in combinations([tuple(n) for n in normals], dim - 1):
        k = [(-1) ** j * _det([row[:j] + row[j + 1 :] for row in rows]) for j in range(dim)]
        if not any(k):
            continue
        g = gcd(*k)
        for sign in (1, -1):
            cand = tuple(sign * x // g for x in k)
            if all(sum(a * b for a, b in zip(n, cand)) >= 0 for n in normals):
                rays.add(cand)
    return sorted(rays)


def recession_is_trivial(normals, dim):
    """Whether the cone {x : n.x >= 0 for each normal} is {0}.

    The cone holds a line unless some dim x dim minor of the normals is
    nonzero; a pointed cone is {0} exactly when it has no extreme ray.
    """
    if dim == 0:
        return True
    if len(normals) < dim or maximal_minors_gcd(normals) == 0:
        return False
    return not brute_extreme_rays(normals, dim)


def maximal_minors_gcd(rows):
    """gcd of the maximal minors of an integer matrix (0 when rank-deficient).

    For independent rows v_1..v_k in Z^n (k <= n) the gcd is 1 exactly when
    they extend to a basis of Z^n; for n + 1 rows of rank n it is 1 exactly
    when they generate Z^n.
    """
    rows = [list(r) for r in rows]
    k = min(len(rows), len(rows[0]))
    g = 0
    for rs in combinations(range(len(rows)), k):
        for cs in combinations(range(len(rows[0])), k):
            g = gcd(g, _det([[rows[i][j] for j in cs] for i in rs]))
    return g


# --- hull vertices and cone faces by ranks ------------------------------------


def hull_vertices_by_rank(points, facets):
    """The points that are vertices of their hull, by the rank test.

    `facets` are the hull's (normal, bound) rows normal.x >= bound, with
    the affine-hull equalities as pairs of opposite rows.  A point is a
    vertex exactly when the normals of the rows tight at it have full rank.
    """
    ambient = len(points[0])

    def is_vertex(p):
        tight = [n for n, b in facets if _pairing(n, p) == b]
        return bool(tight) and sp.Matrix(tight).rank() == ambient

    return sorted(p for p in set(map(tuple, points)) if is_vertex(p))


def cone_faces_by_facets(rays):
    """Faces of a full-dimensional pointed cone, as sets of ray positions.

    Every face is the set of rays tight on some subset of the facet normals
    (the empty subset gives the cone itself), and the facet normals are the
    extreme rays of the dual cone, found by enumeration.
    """
    normals = brute_extreme_rays(rays, len(rays[0]))
    faces = set()
    for size in range(len(normals) + 1):
        for picked in combinations(normals, size):
            faces.add(tuple(i for i, r in enumerate(rays)
                            if all(_pairing(n, r) == 0 for n in picked)))
    return faces


# --- complete fans by pairs of cones and by ridges ----------------------------


def _pairing(a, b):
    return sum(x * y for x, y in zip(a, b))


def _facet_normals(fan, cone):
    """Inward facet normals of a full-dimensional pointed cone of the fan:
    the extreme rays of its dual cone."""
    return brute_extreme_rays([fan.rays[i] for i in cone], fan.dim)


def first_bad_pair(fan):
    """First pair of maximal cones, in index order, whose intersection is not
    a face of both, or None when every pair meets in a common face.

    Every maximal cone must be full-dimensional and generated by its extreme
    rays.  The intersection's extreme rays I come from `brute_extreme_rays`
    on the facet normals of both cones.  cone(I) is a face of a cone exactly
    when the cone's rays that vanish on every normal vanishing on I are I.
    A shortcut skips the enumeration: when a facet normal n of one cone is
    nonpositive on the other cone and n = 0 holds the same rays of both,
    the cones meet in the face that n = 0 cuts out of each.
    """
    normals = [_facet_normals(fan, cone) for cone in fan.maximal_cones]

    def rays_on(tight, cone):
        return {fan.rays[i] for i in cone if all(_pairing(n, fan.rays[i]) == 0 for n in tight)}

    def split(cone_normals, cone, other):
        return any(
            all(_pairing(n, fan.rays[i]) <= 0 for i in other)
            and rays_on([n], cone) == rays_on([n], other)
            for n in cone_normals
        )

    def is_face(cone, cone_normals, inter):
        tight = [n for n in cone_normals if all(_pairing(n, r) == 0 for r in inter)]
        return rays_on(tight, cone) == set(inter)

    for a, b in combinations(range(len(fan.maximal_cones)), 2):
        ca, cb = fan.maximal_cones[a], fan.maximal_cones[b]
        if split(normals[a], ca, cb) or split(normals[b], cb, ca):
            continue
        inter = brute_extreme_rays(normals[a] + normals[b], fan.dim)
        if not (is_face(ca, normals[a], inter) and is_face(cb, normals[b], inter)):
            return ca, cb
    return None


def complete_by_ridges(fan):
    """Whether every maximal cone is full-dimensional, every ridge (facet of
    a maximal cone, as a ray-index set) lies in exactly two maximal cones,
    and the cones joined across ridges form one connected graph.

    For a fan (see `first_bad_pair`) this says that it is complete.
    """
    cones = fan.maximal_cones
    ranks_full = [len(c) >= fan.dim and maximal_minors_gcd([fan.rays[i] for i in c]) != 0
                  for c in cones]
    if not cones or not all(ranks_full):
        return False
    owners = {}
    for idx, cone in enumerate(cones):
        for n in _facet_normals(fan, cone):
            ridge = frozenset(i for i in cone if _pairing(n, fan.rays[i]) == 0)
            owners.setdefault(ridge, []).append(idx)
    if any(len(pair) != 2 for pair in owners.values()):
        return False
    neighbours = {idx: set() for idx in range(len(cones))}
    for a, b in owners.values():
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for nb in neighbours[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    return len(seen) == len(cones)


# --- form-sheaf series with exponents in Z^r -----------------------------------


def _series_product(a, b, p):
    out = {}
    for (e1, j1), c1 in a.items():
        for (e2, j2), c2 in b.items():
            if j1 + j2 <= p:
                key = (tuple(x + y for x, y in zip(e1, e2)), j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _forms_series_in_exponents(r, m, degrees, kind, pmax):
    """The form-sheaf series of `kind` modulo y^(pmax+1), {(s, j): coeff}
    with s in Z^r.

    The factorizations of the `forms` module docstring, each written out
    with x-exponents in Z^r (geometric series term by term, 1/(1 - y L) as
    the sum of the powers of y L) and multiplied term by term; m is the
    dimension of the fan and r its ray count.
    """
    zero = (0,) * r
    units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    rows = [tuple(d) for d in degrees]
    js = range(pmax + 1)

    def poly(terms):  # {(e, j): c} from (e, j, c) triples
        out = {}
        for e, j, c in terms:
            out[(e, j)] = out.get((e, j), 0) + c
        return out

    def geometric(c, e):  # 1 / (1 - c y x^e)
        return poly((tuple(j * x for x in e), j, c**j) for j in js)

    def scalar_power(c, e):  # (1 + c y)^e
        return poly((zero, j, c**j * int(sp.binomial(e, j))) for j in js)

    if kind == "alt":
        factors = [poly([(zero, 0, 1), (u, 1, 1)]) for u in units]
        factors.append(scalar_power(1, m - r))
        for d in rows:
            factors += [poly([(zero, 0, 1), (d, 0, -1)]), geometric(-1, d)]
    elif kind == "sym":
        factors = []
        for d in rows:
            factors += [poly([(zero, 0, 1), (d, 0, -1)]), poly([(zero, 0, 1), (d, 1, -1)])]
        factors.append(scalar_power(-1, r - m))
        factors += [geometric(1, u) for u in units]
    else:  # 1 / (1 - y L), L = sum_j x_j + m - r - sum_i x^{d_i}
        y_form = poly([(u, 1, 1) for u in units] + [(zero, 1, m - r)]
                      + [(d, 1, -1) for d in rows])
        inverse = power = {(zero, 0): 1}
        for _ in range(pmax):
            power = _series_product(power, y_form, pmax)
            inverse = {**inverse, **power}
        factors = [poly([(zero, 0, 1), (d, 0, -1)]) for d in rows] + [inverse]
    product_ = {(zero, 0): 1}
    for factor in factors:
        product_ = _series_product(product_, factor, pmax)
    return product_


def chi_forms_by_exponents(r, m, degrees, kind, pmax, h):
    """chi of the p-forms of `kind` for p = 0..pmax, from the series in Z^r:
    every term q x^s y^j adds q * h(-s) to the value at p = j.  `h` is the
    Hilbert function of the fan, m its dimension and r its ray count.
    """
    values = [0] * (pmax + 1)
    for (e, j), c in _forms_series_in_exponents(r, m, degrees, kind, pmax).items():
        values[j] += c * h(tuple(-x for x in e))
    return values


def forms_series_by_factors(ctx, degrees, kind, pmax):
    """Slices y^0..y^pmax of the form-sheaf series of `kind` on the fan of
    the Hilbert context `ctx`, each {class key: coeff} without zero
    coefficients.

    The product of the written-out factors in Z^r, each of its terms keyed
    by `ctx.class_key` on its own, so no sum of keys is ever reduced.
    """
    slices = [{} for _ in range(pmax + 1)]
    for (e, j), c in _forms_series_in_exponents(ctx.r, ctx.fan.dim, degrees, kind, pmax).items():
        key = ctx.class_key(e)
        slices[j][key] = slices[j].get(key, 0) + c
    return [{a: c for a, c in piece.items() if c} for piece in slices]


# --- weighted form-sheaf series, written out -----------------------------------


def wps_series_by_factors(weights, degrees, kind, pmax):
    """Slices y^0..y^pmax of the weighted form-sheaf series, each times
    x^(-1) prod_i (1 - x^{d_i}): {exponent: coefficient} numerators over
    prod_j (1 - x^{w_j}).

    The factorizations of the `wps` module docstring, each written out
    modulo y^(pmax+1) (geometric series term by term, 1/(1 - y L) as the
    sum of the powers of y L) and multiplied with `_series_product` on
    exponents of length one.
    """
    js = range(pmax + 1)

    def linear(c, e):  # 1 + c y x^e
        return {((0,), 0): 1, ((e,), 1): c}

    def geometric(c, e):  # 1 / (1 - c y x^e)
        return {((j * e,), j): c**j for j in js}

    if kind == "alt":
        factors = [geometric(-1, 0)] + [linear(1, w) for w in weights]
        factors += [geometric(-1, d) for d in degrees]
    elif kind == "sym":
        factors = [linear(-1, 0)] + [linear(-1, d) for d in degrees]
        factors += [geometric(1, w) for w in weights]
    else:  # 1 / (1 - y L), L = sum_j x^{w_j} - sum_i x^{d_i} - 1
        y_form = {}
        for e, c in [(w, 1) for w in weights] + [(d, -1) for d in degrees] + [(0, -1)]:
            y_form[((e,), 1)] = y_form.get(((e,), 1), 0) + c
        inverse = power = {((0,), 0): 1}
        for _ in range(pmax):
            power = _series_product(power, y_form, pmax)
            inverse = {**inverse, **power}
        factors = [inverse]
    product_ = {((-1,), 0): 1}
    for factor in factors + [{((0,), 0): 1, ((d,), 0): -1} for d in degrees]:
        product_ = _series_product(product_, factor, pmax)
    slices = [{} for _ in js]
    for ((e,), j), c in product_.items():
        slices[j][e] = c
    return slices


# --- Hirzebruch-style chi_y for complete intersections in P^m ----------------


def chi_y_projective_ci(m, degrees):
    """[chi of the p-form sheaf for p = 0..n] of a smooth complete
    intersection of the given degrees in projective m-space.

    Coefficient extraction from the closed generating function

        chi_y = [z^m]  (1 + y(1-z))^(m+1) / ((1-z)(1+y))
                       * prod_i (1 - (1-z)^{d_i}) / (1 + y (1-z)^{d_i}),

    evaluated with sympy series arithmetic (independent of the package).
    """
    y, z = sp.symbols("y z")
    expr = (1 + y * (1 - z)) ** (m + 1) / ((1 - z) * (1 + y))
    for d in degrees:
        expr *= (1 - (1 - z) ** d) / (1 + y * (1 - z) ** d)
    ser = sp.series(expr, z, 0, m + 1).removeO()
    coeff = sp.expand(ser).coeff(z, m)
    coeff = sp.cancel(sp.together(coeff))
    poly = sp.Poly(coeff, y)
    n = m - len(degrees)
    return [int(poly.coeff_monomial(y**p)) for p in range(n + 1)]


def hodge_from_chi_y_lefschetz(m, degrees):
    """Hodge diamond of a projective complete intersection from chi_y.

    Off the middle anti-diagonal the numbers are deltas (weak Lefschetz);
    the anti-diagonal follows by solving chi^p = sum_q (-1)^q h^{pq}.
    """
    chis = chi_y_projective_ci(m, degrees)
    n = m - len(degrees)
    h = [[1 if (p == q and p + q != n) else 0 for q in range(n + 1)] for p in range(n + 1)]
    for p in range(n + 1):
        rest = sum((-1) ** q * h[p][q] for q in range(n + 1) if q != n - p)
        h[p][n - p] = (-1) ** (n - p) * (chis[p] - rest)
    return h


# --- residues of weighted integrands ------------------------------------------


def laurent_residues(num, weights):
    """(res_0, res_inf) of num(x) / prod_j (1 - x^{w_j}) from sympy's
    Laurent series at 0 and at infinity; `num` maps exponents to coefficients.
    """
    x = sp.symbols("x")
    expr = sum(c * x**e for e, c in num.items())
    for w in weights:
        expr /= 1 - x**w
    at_zero = sp.series(expr, x, 0, 0).removeO()
    at_inf = sp.series(expr, x, sp.oo, 2).removeO()
    return int(at_zero.coeff(x, -1)), -int(at_inf.coeff(x, -1))
