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
decided together with the Fourier-Motzkin cascade of the constraints
decided so far.  A child extends its parent's cascade by the one row it
adds (`extend_cascade`), so no node eliminates from scratch (the reverse
search cell enumeration of Avis and Fukuda, 1996).  A branch is cut when
its table is empty (every chi below it is zero) or when its cascade shows
the constraints without a rational solution.  The regions of a fixed
dimension m meet O(r^m) cells, far fewer than 2^r.

H(s) depends only on the divisor class of s in Cl = Z^r / P Z^n, P the
ray matrix: s + P u translates every region by u (Cox 1995).  The H memo
of a context is therefore keyed by a canonical representative of the
class, and every linearly equivalent s after the first is a memo hit.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb, lcm

from .errors import ConsistencyError
from .fans import Fan, validate, is_simplicial
from .lattice import (
    _count_levels,
    cascade_is_bounded,
    det_int,
    extend_cascade,
    row_lattice,
    vec_mat,
)

MAX_RAYS = 24
MAX_CONES = 24


class HilbertContext:
    """Per-fan precomputation enabling fast evaluation of H(s).

    Immutable after construction apart from the H memo, which only caches
    deterministic values (safe for concurrent reuse: a duplicated
    computation always lands on the same result).  The memo is keyed by
    the divisor class of s (`class_key`).
    """

    def __init__(self, fan: Fan, c_table):
        self.fan = fan
        self.r = len(fan.rays)
        self.c_table = c_table  # dict: ray bitmask -> nonzero integer coefficient
        self.simplicial = is_simplicial(fan)
        self._h_memo = {}  # class_key(s) -> H(s)
        rows = list(zip(*fan.rays))  # P^T
        reduction = row_lattice(rows, self.r)
        self._right, n = reduction.right, fan.dim  # U
        lower = [vec_mat(row, self._right)[:n] for row in rows]  # L
        for k, row in enumerate(lower):  # Hermite form: reduce below each pivot
            for i in reversed(range(k)):
                c = row[i] // lower[i][i]
                lower[k] = row = [x - c * y for x, y in zip(row, lower[i])]
        # a unit pivot now has only zeros below it, so its coordinate stays 0
        # once reduced: keys keep only the torsion and the last r - n ones
        torsion = [i for i in range(n) if abs(lower[i][i]) > 1]
        self._keep = torsion + list(range(n, self.r))
        self._rows = [(i, lower[i]) for i in reversed(range(n))]
        self._torsion = [(k, [lower[i][j] for j in torsion]) for k, i in enumerate(torsion)]
        self._torsion.reverse()
        self._key_rows = [reduction.right_inverse[i] for i in self._keep]

    def class_key(self, s) -> tuple:
        """Canonical representative of the class of s in Z^r / P Z^n.

        With P^T U = [L | 0] (U unimodular, L lower triangular of rank n),
        s + P u has the coordinates s U + u^T [L | 0]: the last r - n are
        invariant, and the first n are reduced modulo the rows of L from
        the last row up, which also tells torsion classes apart.  The key
        leaves out the coordinates of unit pivots, which reduce to 0.
        """
        a = _reduce(list(vec_mat(s, self._right)), self._rows)
        return tuple(a[i] for i in self._keep)

    def reduce_class(self, a) -> tuple:
        """The key of a list of key coordinates, such as a sum of keys.

        Only the torsion rows of L act, so the list is reduced in place by
        them; when Cl is free there are none.
        """
        return tuple(_reduce(a, self._torsion))

    def class_divisor(self, key) -> tuple:
        """A divisor s whose class has this key."""
        return vec_mat(key, self._key_rows)


def _reduce(a, rows):
    """Reduce the list a in place by (i, row) pairs, row[i] the pivot."""
    for i, row in rows:
        c = a[i] // row[i]
        for j in range(i + 1):
            a[j] -= c * row[j]
    return a


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

    Raises on fans beyond the desk-scale caps (24 rays / 24 maximal cones),
    checked first, then on invalid or non-complete fans.  Only the
    intersection semilattice is built here; chi_I is never tabulated over
    all ray sets, since `h_of_s` reduces the c_S along its cell walk.
    """
    r = len(fan.rays)
    if r > MAX_RAYS:
        raise ValueError(f"fan has {r} rays; the supported maximum is {MAX_RAYS}")
    if len(fan.maximal_cones) > MAX_CONES:
        raise ValueError(
            f"fan has {len(fan.maximal_cones)} maximal cones; "
            f"the supported maximum is {MAX_CONES}"
        )
    report = validate(fan)
    if not report.ok:
        raise ValueError(f"invalid fan: {report.first_violation}")
    if not report.complete:
        raise ValueError("Hilbert context requires a complete fan")
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
    decided for the rays before j whether they lie in I, and carries the
    Fourier-Motzkin cascade of their constraints and the c_S reduced to
    the undecided rays (`_split`).  An empty table means chi is zero on the
    whole branch.  Every live child extends its parent's cascade by its
    one row and is dropped when the extension shows it empty.  At a leaf
    the table is {0: chi_I}, and the region is checked bounded and counted,
    both from the carried cascade.  H is memoized per divisor class of s
    (`class_key`), so linearly equivalent s are walked once.
    """
    s = tuple(s)
    if len(s) != ctx.r:
        raise ValueError("s-vector length must match the number of rays")
    key = ctx.class_key(s)
    cached = ctx._h_memo.get(key)
    if cached is not None:
        return cached
    r, dim = ctx.r, ctx.fan.dim
    halfspaces = _halfspaces(ctx, s)

    def walk(j, table, mask, levels):
        if j == r:
            if not cascade_is_bounded(levels):
                # completeness bounds every region with nonzero chi
                raise ConsistencyError(
                    f"unbounded region with nonzero chi for ray set {bin(mask)}"
                )
            return table[0] * _count_levels([level.items() for level in levels], dim)
        bit = 1 << j
        total = 0
        for child, (normal, bound), child_mask in zip(
            _split(table, bit), halfspaces[j], (mask | bit, mask)
        ):
            if child:
                child_levels = extend_cascade(levels, normal, bound)
                if child_levels is not None:
                    total += walk(j + 1, child, child_mask, child_levels)
        return total

    total = walk(0, ctx.c_table, 0, [{}] * dim)
    ctx._h_memo[key] = total
    return total


def choose(e: int, j: int) -> int:
    """C(e, j) = e (e - 1) ... (e - j + 1) / j!, the y^j coefficient of (1 + y)^e."""
    if e >= 0:
        return comb(e, j)
    return (-1) ** j * comb(j - e - 1, j)


def h_of_classes(ctx: HilbertContext, keys) -> dict:
    """H at the class of every key in `keys` (`class_key`), as {key: H}.

    A coset is the torsion part of a key with its free coordinates mod L.
    On a simplicial fan a coset that asks for more classes than the
    C(f + n, n) samples of its fit is fitted (`_fit_coset`); every other
    class is walked by `h_of_s`, so no coset walks more classes than it
    asks for.  L is computed only when some coset can pay.
    """
    keys = set(keys)
    n, f = ctx.fan.dim, ctx.r - ctx.fan.dim
    t = len(ctx._keep) - f  # torsion coordinates lead each key
    samples = comb(f + n, n)
    out = {}
    if ctx.simplicial and len(keys) > samples:
        period = lcm(*(abs(det_int(ctx.fan.ray_matrix(c))) for c in ctx.fan.maximal_cones))
        cosets = {}
        for key in keys:
            coset = key[:t] + tuple(x % period for x in key[t:])
            cosets.setdefault(coset, []).append(key)
        for coset, members in cosets.items():
            if len(members) > samples:
                out.update(_fit_coset(ctx, coset[:t], coset[t:], period, members))
    for key in keys - out.keys():
        out[key] = h_of_s(ctx, ctx.class_divisor(key))
    return out


def _fit_coset(ctx: HilbertContext, torsion, rep, period, members) -> dict:
    """H at the keys `members` of one coset, from a walk at C(f + n, n) samples.

    H(base + period z) is an integer-valued polynomial of total degree at
    most n in z in Z^f, so it is fixed by its values at the simplex
    {z >= 0, |z| <= n}: with the mixed forward differences D_k at z = 0,
    H = sum over |k| <= n of D_k C(z_1, k_1) ... C(z_f, k_f), exact for z
    of either sign.  The simplex sits where the walks are cheap: its
    centroid base + period n / (f + 1) goes to the coset point nearest
    half the canonical key (the centre of Serre duality), rounded down;
    on P^n the samples are the keys -(n + 1) .. -1.
    """
    n, f = ctx.fan.dim, len(rep)
    anti = ctx.class_key((1,) * ctx.r)[len(torsion):]
    # z0 = ceil(-num / den - 1/2) is the nearest integer to the exact
    # offset -num / den of the centroid, ties rounded down
    den = 2 * period * (f + 1)
    base = []
    for x, a in zip(rep, anti):
        num = (a + 2 * x) * (f + 1) + 2 * period * n
        base.append(x - period * ((2 * num + den) // (2 * den)))
    points = [  # the simplex, as exponent vectors k with |k| <= n
        tuple(map(axes.count, range(f)))
        for d in range(n + 1)
        for axes in combinations_with_replacement(range(f), d)
    ]
    diff = {}
    for k in points:
        key = torsion + tuple(b + period * z for b, z in zip(base, k))
        diff[k] = h_of_s(ctx, ctx.class_divisor(key))
    for i in range(f):  # forward differences along each axis in turn
        order = sorted((k for k in points if k[i]), key=lambda k: -k[i])
        for level in range(1, n + 1):
            for k in order:
                if k[i] >= level:
                    diff[k] -= diff[k[:i] + (k[i] - 1,) + k[i + 1 :]]
    terms = [(k, c) for k, c in diff.items() if c]
    out = {}
    for key in members:
        z = [(y - b) // period for y, b in zip(key[len(torsion):], base)]
        rows = [[choose(x, j) for j in range(n + 1)] for x in z]
        total = 0
        for k, c in terms:
            for row, j in zip(rows, k):
                c *= row[j]
            total += c
        out[key] = total
    return out


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
