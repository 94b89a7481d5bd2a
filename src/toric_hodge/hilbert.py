"""The inclusion-exclusion Hilbert function H(s) of a complete fan.

H(s) is the Euler characteristic of the degree-s graded piece of the
Cox-style homogeneous coordinate algebra.  It is assembled from two layers
of combinatorics:

* inclusion-exclusion coefficients chi_I over subsets I of the ray set,
  obtained from the nerve of the cover by maximal cones.  Writing J_i for
  the ray set of the i-th maximal cone and, for a subset K of maximal
  cones, S_K for the intersection of their J's, the coefficient attached to
  an intersection set S is c_S = sum over K with S_K = S of (-1)^(|K|-1),
  and chi_I = sum of c_S over S contained in I.  The c_S are computed by
  Moebius inversion on the (small) semilattice of distinct intersections,
  which agrees with the direct alternating sum over all 2^l - 1 subsets.

* lattice-point counts n_{I,s} of the regions where exactly the rays in I
  satisfy <p_j, q> >= -s_j.

Then H(s) = sum over I with chi_I != 0 of chi_I * n_{I,s}, and the Euler
characteristic of the structure sheaf of a complete intersection with
degree rows d_1..d_k is the alternating sum of H over subset sums of the
-d_i.

The sum is not taken over all 2^r ray sets.  `h_of_s` walks the cells of
the arrangement of the hyperplanes <p_j, q> = -s_j depth first, deciding
the rays in index order, and carries the c_S reduced to the rays not yet
decided.  A branch is cut when that table is empty (every chi below it is
zero) or, where both children are still chi-live, when the constraints
decided so far have no rational solution.  The regions of a fixed
dimension m meet O(r^m) cells, far fewer than 2^r.
"""

from __future__ import annotations

from itertools import combinations

from .errors import ConsistencyError
from .fans import Fan, is_complete, validate, is_simplicial
from .lattice import RationalPolyhedron, count_lattice_points, is_feasible

MAX_RAYS = 24
MAX_CONES = 24


class HilbertContext:
    """Per-fan precomputation enabling fast evaluation of H(s).

    Immutable after construction apart from internal memo dictionaries,
    which only cache deterministic values (safe for concurrent reuse: a
    duplicated computation always lands on the same result).
    """

    def __init__(self, fan: Fan, c_table):
        self.fan = fan
        self.r = len(fan.rays)
        self.c_table = c_table  # dict: ray bitmask -> nonzero integer coefficient
        self.simplicial = is_simplicial(fan)
        self._h_memo = {}

    def chi_of_mask(self, mask: int) -> int:
        return sum(c for s, c in self.c_table.items() if s & mask == s)


def _intersection_coefficients(cone_masks):
    """c_S by Moebius inversion over the intersection semilattice.

    For every S arising as an intersection of ray sets of maximal cones,
    sum over supersets gives the indicator [some J_i contains S]; peeling
    that off from the largest sets downward yields c_S.
    """
    closure = set(cone_masks)
    frontier = list(closure)
    while frontier:
        nxt = []
        for a in frontier:
            for b in cone_masks:
                c = a & b
                if c not in closure:
                    closure.add(c)
                    nxt.append(c)
        frontier = nxt
    ordered = sorted(closure, key=lambda m: -bin(m).count("1"))
    c_table = {}
    for s in ordered:
        total = 1  # every closure element is contained in some J_i
        for t, ct in c_table.items():
            if t != s and t & s == s:
                total -= ct
        c_table[s] = total
    return {s: c for s, c in c_table.items() if c != 0}


def build_context(fan: Fan) -> HilbertContext:
    """Aggregate the nerve combinatorics of a complete fan.

    Raises on invalid or non-complete fans, and on fans beyond the
    documented desk-scale caps (24 rays / 24 maximal cones).  Only the
    intersection semilattice is built here; chi_I is never tabulated over
    all ray sets, since `h_of_s` reduces the c_S along its cell walk.
    """
    report = validate(fan)
    if not report.ok:
        raise ValueError(f"invalid fan: {report.first_violation}")
    if not is_complete(fan):
        raise ValueError("Hilbert context requires a complete fan")
    r = len(fan.rays)
    if r > MAX_RAYS:
        raise ValueError(f"fan has {r} rays; the supported maximum is {MAX_RAYS}")
    if len(fan.maximal_cones) > MAX_CONES:
        raise ValueError(
            f"fan has {len(fan.maximal_cones)} maximal cones; "
            f"the supported maximum is {MAX_CONES}"
        )
    cone_masks = []
    for cone in fan.maximal_cones:
        m = 0
        for i in cone:
            m |= 1 << i
        cone_masks.append(m)
    return HilbertContext(fan, _intersection_coefficients(cone_masks))


def _halfspaces(ctx: HilbertContext, s):
    """Per ray j, the constraint for j in I and the one for j not in I.

    In I: <p_j, q> >= -s_j.  Not in I: <p_j, q> <= -s_j - 1.
    """
    return [
        ((tuple(ray), -s[j]), (tuple(-x for x in ray), s[j] + 1))
        for j, ray in enumerate(ctx.fan.rays)
    ]


def _region(ctx: HilbertContext, mask: int, s) -> RationalPolyhedron:
    cons = tuple(
        pair[0] if mask >> j & 1 else pair[1]
        for j, pair in enumerate(_halfspaces(ctx, s))
    )
    return RationalPolyhedron(cons, ctx.fan.dim)


def _as_mask(ctx: HilbertContext, subset) -> int:
    if isinstance(subset, int):
        return subset
    m = 0
    for j in subset:
        if j < 0 or j >= ctx.r:
            raise ValueError("ray index out of range")
        m |= 1 << j
    return m


def n_I_s(ctx: HilbertContext, subset, s) -> int:
    """Number of q with <p_j, q> >= -s_j exactly for the rays in `subset`.

    The region is scanned exactly; an unbounded region has no finite count
    and raises (a ConsistencyError when chi of the subset is nonzero, since
    completeness of the fan is supposed to rule that out).
    """
    mask = _as_mask(ctx, subset)
    s = tuple(s)
    if len(s) != ctx.r:
        raise ValueError("s-vector length must match the number of rays")
    bounded, count = count_lattice_points(_region(ctx, mask, s))
    if not bounded:
        if ctx.chi_of_mask(mask) != 0:
            raise ConsistencyError(
                f"unbounded region with nonzero chi for ray set {bin(mask)}"
            )
        raise ValueError("region is unbounded; the count is not finite")
    return count


def _split(table, bit):
    """The c_S tables of the two children that decide the ray `bit`.

    In I: every S maps to S - {bit}, adding up coefficients that meet.  Not
    in I: every S containing the ray is dropped.  Zero entries are removed.
    """
    outside = {S: c for S, c in table.items() if not S & bit}
    inside = dict(outside)
    for S, c in table.items():
        if S & bit:
            c += inside.get(S ^ bit, 0)
            if c:
                inside[S ^ bit] = c
            else:
                del inside[S ^ bit]
    return inside, outside


def h_of_s(ctx: HilbertContext, s) -> int:
    """H(s) = sum over I with chi_I != 0 of chi_I * n_{I,s}.

    Depth-first walk over the rays in index order.  A node at depth j has
    decided for the rays before j whether they lie in I, and carries their
    constraints and the c_S reduced to the undecided rays (`_split`).  An
    empty table means chi is zero on the whole branch; at a leaf the table
    is {0: chi_I} and the region is counted by `n_I_s`.  Rational
    feasibility is only tested at a fork, where both children are live: a
    lone live child is checked by the next fork or by the leaf's count.
    """
    s = tuple(s)
    if len(s) != ctx.r:
        raise ValueError("s-vector length must match the number of rays")
    cached = ctx._h_memo.get(s)
    if cached is not None:
        return cached
    r, dim = ctx.r, ctx.fan.dim
    halfspaces = _halfspaces(ctx, s)
    cons = []

    def walk(j, table, mask):
        if j == r:
            return table[0] * n_I_s(ctx, mask, s)
        bit = 1 << j
        inside, outside = _split(table, bit)
        if inside and outside and cons:
            if not is_feasible(RationalPolyhedron(tuple(cons), dim)):
                return 0
        total = 0
        for child, con, child_mask in (
            (inside, halfspaces[j][0], mask | bit),
            (outside, halfspaces[j][1], mask),
        ):
            if child:
                cons.append(con)
                total += walk(j + 1, child, child_mask)
                cons.pop()
        return total

    total = walk(0, ctx.c_table, 0)
    ctx._h_memo[s] = total
    return total


def chi_structure_sheaf(ctx: HilbertContext, degrees) -> int:
    """Euler characteristic of the structure sheaf of the intersection.

    Alternating sum of H over all subset sums of the degree rows.
    """
    rows = [tuple(row) for row in degrees]
    for row in rows:
        if len(row) != ctx.r:
            raise ValueError("degree row length must match the number of rays")
    k = len(rows)
    total = 0
    for tau in range(k + 1):
        for pick in combinations(range(k), tau):
            shift = [0] * ctx.r
            for i in pick:
                for j in range(ctx.r):
                    shift[j] -= rows[i][j]
            total += (-1) ** tau * h_of_s(ctx, tuple(shift))
    return total
