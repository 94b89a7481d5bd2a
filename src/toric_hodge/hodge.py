"""Hodge-Deligne tables for complete intersections in tori and their
compactifications.

`epq_c_ci` computes the compactly supported table e_c^{pq} of a generic
complete intersection Y* in (C*)^m with prescribed Newton supports, by
induction on the torus dimension and the number of equations:

  1. a singleton support or an overdetermined system gives the empty variety;
  2. no equations gives the torus itself;
  3. supports spanning a lower-dimensional lattice split off a torus factor
     (Kuenneth convolution after rewriting in the saturated lattice); then
     the problem is solved, and memoized, on the vertices of its supports, as
     the table depends only on the polytopes conv(S_i) (Khovanskii); faces and
     unimodular images of vertex sets are vertex sets, so deeper calls skip it;
  4. below the middle weight the ordinary table agrees with the torus,
     corrected by inclusion-exclusion over proper sub-collections of the
     equations (a Lefschetz-type connectivity argument);
  5. duality transports those values to the compactly supported table above
     the middle;
  6. the problem is compactified inside a pulling refinement of the normal
     fan of the Minkowski sum of the supports (simplicial, on the same rays),
     and every boundary orbit is solved recursively, except those whose
     restricted supports hold a single point or outnumber m - dim(sigma):
     their table is zero by step 1 (the fan is built and checked against
     its cap before step 4, so a fan past the cap fails fast);
  7. the row sums e^p_c = sum_q e_c^{pq} of the open part are read from
     lattice-point counts of Minkowski combinations of the supports, each
     counted on the facets of the coordinate projections of their sum,
     found once per problem from its projected vertices;
  8. the symmetry of the quasi-smooth closure (open part plus boundary)
     gives e_c below the middle, the row sums give the middle
     anti-diagonal, and the closure's row sums must satisfy Serre duality
     e^p = e^{n-p} (checked).

`hodge_compact` sums e_c over all torus orbits of a complete simplicial
fan, yielding the Hodge diamond h^{pq} = (-1)^{p+q} e^{pq} of a compact
quasi-smooth complete intersection.  Restrictions that vanish identically
on an orbit impose no condition there and simply drop from the orbit's
system; orbits with no surviving equations contribute full subtori.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import comb
from operator import mul

from .errors import ConsistencyError
from .fans import (
    Fan,
    TorusCIProblem,
    all_cones,
    degrees_of,
    is_simplicial,
    normal_fan,
    orbit_problem,
    restrict_supports,
    simplicial_refinement,
    validate,
)
from .hodge_tables import EPQTable, zero_table
from .lattice import (
    _count_levels,
    affine_lattice_reduction,
    convex_hull,
    minkowski_support,
    projection_levels,
)

# Refined normal fans with more maximal cones fail fast: the orbit recursion
# grows with the fan.  The (C*)^6 hypersurface on 11 points of [0,3]^6 drawn
# by random.Random(101) has 983 refined cones and takes 4.9 s (Python 3.11,
# shared 2-core Xeon).
MAX_ORBIT_CONES = 1024

# Tables of solved problems, oldest first; past this many the oldest is
# dropped.  The largest (C*)^6 systems under MAX_ORBIT_CONES store about 2,245.
MAX_EPQ_MEMO = 4096
_epq_memo: dict = {}


def clear_epq_memo() -> None:
    """Drop all cached tables (results are unchanged by doing so)."""
    _epq_memo.clear()


def epq_torus(m: int, mode: str) -> EPQTable:
    """e^{pq} of the torus (C*)^m, ordinary or compactly supported.

    Cohomology is exterior on m classes of type (1,1); compact support
    flips the sign pattern through duality.
    """
    if m < 0:
        raise ValueError("negative torus dimension")
    if mode not in ("ordinary", "compact"):
        raise ValueError(f"unknown mode {mode!r}")
    ent = [[0] * (m + 1) for _ in range(m + 1)]
    for p in range(m + 1):
        if mode == "ordinary":
            ent[p][p] = (-1) ** p * comb(m, p)
        else:
            ent[p][p] = (-1) ** (m - p) * comb(m, p)
    return EPQTable(tuple(tuple(r) for r in ent), mode)


def _memo_key(problem: TorusCIProblem):
    return (problem.m, tuple(sorted(problem.supports)))


def epq_c_ci(problem: TorusCIProblem, *, vertices: bool = False) -> EPQTable:
    """Compactly supported e^{pq} of a generic toric complete intersection.

    `vertices` says that each support is the vertex set of its hull.
    """
    key = _memo_key(problem)
    cached = _epq_memo.get(key)
    if cached is not None:
        return cached
    try:
        table = _epq_c_ci_compute(problem, vertices)
        if not table.is_symmetric():
            msg = "compactly supported table lost (p,q)-symmetry"
            raise ConsistencyError("symmetry", msg)
    except ConsistencyError as exc:  # name the subproblem whose check fired
        if exc.subproblem is None:
            exc.subproblem = key
        else:
            exc.depth += 1
        raise
    if len(_epq_memo) >= MAX_EPQ_MEMO:
        del _epq_memo[next(iter(_epq_memo))]
    _epq_memo[key] = table
    return table


def _epq_c_ci_compute(problem: TorusCIProblem, vertices: bool) -> EPQTable:
    m = problem.m
    k = problem.k
    n = m - k

    # 1. generic fibers empty: a single monomial never vanishes on the torus,
    #    and an overdetermined generic system has no solutions
    if any(len(s) == 1 for s in problem.supports) or k > m:
        return zero_table(n, "compact")
    # 2. no equations
    if k == 0:
        return epq_torus(m, "compact")
    # 3. split off the torus factor complementary to the affine span
    red = affine_lattice_reduction(problem.supports)
    if red.rank < m:
        inner = epq_c_ci(TorusCIProblem(red.rank, red.supports), vertices=vertices)
        return inner.convolve(epq_torus(m - red.rank, "compact"))
    # only the hulls matter: other points are solved, and memoized, as vertices
    supports = problem.supports
    if not vertices:
        supports = tuple(convex_hull(s).vertices for s in supports)
        if supports != problem.supports:
            return epq_c_ci(TorusCIProblem(m=m, supports=supports), vertices=True)
    delta = minkowski_support(supports, vertices=True)
    # the refined fan of step 6, checked before step 4 solves sub-collections
    fan = simplicial_refinement(normal_fan(delta, m))
    if len(fan.maximal_cones) > MAX_ORBIT_CONES:
        raise ValueError(
            f"refined normal fan has {len(fan.maximal_cones)} maximal cones; "
            f"the supported maximum is {MAX_ORBIT_CONES}"
        )
    report = validate(fan)
    if not report.complete:
        why = report.first_violation or "not complete"
        raise ConsistencyError("refined fan", f"refined normal fan is invalid: {why}")

    # 4. ordinary values below the middle
    torus = epq_torus(m, "ordinary")
    sub_tables = {}
    for size in range(1, k):
        for picks in combinations(range(k), size):
            sub = TorusCIProblem(m=m, supports=tuple(supports[i] for i in picks))
            sub_tables[picks] = epq_c_ci(sub, vertices=True)

    def e_lower(p, q):  # e^{pq}(Y*) for p + q < n
        acc = torus.get(p, q)
        for picks, tab in sub_tables.items():
            n_sub = m - len(picks)
            acc -= (-1) ** (len(picks) - 1) * tab.get(n_sub - p, n_sub - q)
        return (-1) ** (k - 1) * acc

    # 6. solve the boundary of the compactification in the refined fan
    degrees = degrees_of(fan, supports)
    # all_cones lists the zero cone, the open orbit, first
    b = _orbit_sum(fan, all_cones(fan)[1:], supports, n + 1)

    # 7. row sums of the open part; the fan's rays are Delta's facet normals
    top = [(ray, tuple(-d for d in col)) for ray, col in zip(fan.rays, zip(*degrees))]
    sums = _open_row_sums(m, n, projection_levels(top, delta.vertices, supports))

    # 8. e_c: duality (step 5) above the middle, the closure's symmetry below
    e_c = [[0] * (n + 1) for _ in range(n + 1)]
    for p, q in product(range(n + 1), repeat=2):
        if p + q > n:
            e_c[p][q] = e_lower(n - p, n - q)
        elif p + q < n:
            e_c[p][q] = e_lower(p, q) + b[n - p][n - q] - b[p][q]
    for p in range(n + 1):
        e_c[p][n - p] = sums[p] - sum(e_c[p])
    closure = [sums[p] + sum(b[p]) for p in range(n + 1)]
    for p in range(n + 1):
        if closure[p] != closure[n - p]:
            raise ConsistencyError("duality", (
                f"duality mismatch in row {p}: the closure has e^{p} = {closure[p]} "
                f"but e^{n - p} = {closure[n - p]}"
            ))
    return EPQTable(tuple(tuple(r) for r in e_c), "compact")


def _open_row_sums(m: int, n: int, levels) -> list:
    """Row sums e^p_c, p = 0..n, of a generic system in (C*)^m (Khovanskii).

    With L(c) the number of lattice points in sum_i c_i Delta_i, which is
    {x : <u, x> >= sum_i c_i h_i(u)} on every level (u, h) of the
    projections of Delta (`projection_levels`),
      e^p_c = (-1)^(p+m) sum_{|a| <= p} (-1)^|a| C(m, p - |a|)
              sum_{S} (-1)^|S| L(a + 1_S).
    """

    @cache
    def points(c):
        bounded = [[(u, sum(map(mul, c, h))) for u, h in level] for level in levels]
        return _count_levels(bounded, m)

    k = m - n
    mixed = [0] * (n + 1)  # sum over |a| = j of (-1)^|a| sum_S (-1)^|S| L(a + 1_S)
    for a in product(range(n + 1), repeat=k):
        if sum(a) <= n:
            for e in product((0, 1), repeat=k):
                c = tuple(x + y for x, y in zip(a, e))
                mixed[sum(a)] += (-1) ** (sum(a) + sum(e)) * points(c)
    return [
        (-1) ** (p + m) * sum(comb(m, p - j) * mixed[j] for j in range(p + 1))
        for p in range(n + 1)
    ]


def _orbit_sum(fan: Fan, cones, supports, size: int) -> list:
    """Sum of the orbit tables e_c of simplicial cones, as a size x size matrix.

    Zero tables (step 1) are told from the restricted supports in ambient
    coordinates, before any orbit coordinates are computed.
    """
    acc = [[0] * size for _ in range(size)]
    for cone in cones:
        survivors = [s for s in restrict_supports(fan, cone, supports) if s]
        dim = fan.dim - len(cone)
        if dim - len(survivors) >= size:
            msg = "boundary orbit exceeds the expected dimension"
            raise ConsistencyError("orbit dimension", msg)
        if len(survivors) > dim or any(len(s) == 1 for s in survivors):
            continue
        piece = epq_c_ci(orbit_problem(fan, cone, survivors), vertices=True)
        for row, piece_row in zip(acc, piece.entries):
            for q, x in enumerate(piece_row):
                row[q] += x
    return acc


def hodge_compact(fan: Fan, supports) -> EPQTable:
    """Hodge diamond of a compact quasi-smooth toric complete intersection.

    The fan must be complete and simplicial; the answer is the generic one
    for the given supports.  e^{pq} is accumulated orbit by orbit and turned
    into h^{pq} = (-1)^{p+q} e^{pq}; negative or asymmetric output, or mass
    above the expected dimension, is reported as a consistency failure.
    """
    report = validate(fan)
    if not report.ok:
        raise ValueError(f"invalid fan: {report.first_violation}")
    if not report.complete:
        raise ValueError("hodge_compact requires a complete fan")
    if not is_simplicial(fan):
        raise ValueError("hodge_compact requires a simplicial fan")
    supports = TorusCIProblem(m=fan.dim, supports=supports).supports
    n = fan.dim - len(supports)
    if n < 0:
        raise ValueError("more equations than the ambient dimension")
    supports = tuple(convex_hull(s).vertices for s in supports)
    acc = _orbit_sum(fan, all_cones(fan), supports, fan.dim + 1)
    if any(map(any, acc[n + 1 :])):  # acc is symmetric
        raise ConsistencyError(
            "orbit dimension", "orbit decomposition carries mass above the expected dimension"
        )
    h = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(n + 1):
            val = (-1) ** (p + q) * acc[p][q]
            if val < 0:
                raise ConsistencyError("nonnegativity", f"negative Hodge number at {(p, q)}")
            h[p][q] = val
    table = EPQTable(tuple(tuple(r) for r in h), "hodge")
    if not table.is_symmetric():
        raise ConsistencyError("symmetry", "Hodge table is not symmetric")
    return table
