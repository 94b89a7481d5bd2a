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
the rays in walk order, and carries the c_S reduced to the rays not yet
decided together with the Fourier-Motzkin cascade of the constraints
decided so far.  A child extends its parent's cascade by the one row it
adds (`extend_cascade`), so no node eliminates from scratch (the reverse
search cell enumeration of Avis and Fukuda, 1996).  A branch is cut when
its table is empty (every chi below it is zero) or when its cascade shows
the constraints without a rational solution.  The regions of a fixed
dimension m meet O(r^m) cells, far fewer than 2^r.

H(s) depends only on the divisor class of s in Cl = Z^r / P Z^n, P the
ray matrix: s + P u translates every region by u (Cox 1995).  So H is
evaluated, and memoized, at a canonical key of the class (`class_key`),
and of two Serre-dual classes only one is walked.  A walk runs on
`class_divisor(key)`, a translate of s with the same cells and counts
that is zero on the same rays (n of them, on most fans) for every
class.  Those rays come first in the walk order, so the
states after them (`HilbertContext.frontier`) are found once per context.
Where dim >= 3 the coordinates are permuted too, so that the dim - 2 that
`_count_levels` sweeps are the narrowest of {x : <p_j, x> >= -1}.

On a simplicial fan the walk follows one branch, I = all rays or I = {},
when s or -1 - s is nef (Demazure vanishing and Serre duality: Cox-Little-
Schenck, Toric Varieties, 9.1-9.2), tested by the wall forms `_walls` (6.4).
On a surface a class where neither is nef is not walked: for an ample
Cartier class A (`ample_key`), H(s + k A) is a polynomial of degree <= 2 in
k (Snapper; Lazarsfeld, Positivity I, 1.1.24), so H(s) is interpolated from
three classes s + k A far enough along to be nef.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb, lcm

from .errors import ConsistencyError
from .fans import Fan, _hrep, validate, is_simplicial
from .lattice import (
    _count_levels,
    cascade_is_bounded,
    dot,
    extend_cascade,
    row_lattice,
    vec_mat,
)

MAX_RAYS = 24
MAX_CONES = 24
MAX_WALK_EXTENSIONS = 100_000  # cascade extensions of one H walk


class HilbertContext:
    """Per-fan precomputation enabling fast evaluation of H(s).

    Immutable after construction apart from the H memo and the lazy
    properties (`frontier`, `period`, `anticanonical_key`, `ample_key`,
    `_walls`), which only cache deterministic values (safe for concurrent
    reuse: a duplicated computation always lands on the same result).  The
    memo is keyed by the divisor class of s (`class_key`).  The walk reads
    `_rays`, the rays in walk order with their coordinates permuted, and
    `_bits`, their bits in `c_table`.
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
        # walk order: first the rays on which every class_divisor vanishes,
        # whose walk states are the same for every class (`frontier`)
        zero = [j for j in range(self.r) if not any(row[j] for row in self._key_rows)]
        self._order = order = zero + [j for j in range(self.r) if j not in zero]
        self._depth = len(zero)
        self._tail_rows = [[row[j] for j in order[len(zero) :]] for row in self._key_rows]
        coords = self._coordinate_order() if self.simplicial and n >= 3 else range(n)
        self._rays = [tuple(fan.rays[j][i] for i in coords) for j in order]
        self._bits = [1 << j for j in order]  # c_table keeps the fan's bits

    @cached_property
    def _facets(self):
        """Per maximal cone (simplicial), each facet's normal n_k,
        c_k = <n_k, p_k> and k, p_k the one ray off the facet."""
        out = []
        for cone in self.fan.maximal_cones:
            _, normals, tight = _hrep(self.fan, cone)
            off = len(cone) * (len(cone) - 1) // 2  # minus a tight set: the ray off it
            ks = [cone[off - sum(t)] for t in tight]
            out.append([(v, dot(v, self.fan.rays[k]), k) for v, k in zip(normals, ks)])
        return out

    @cached_property
    def period(self) -> int:
        """L = lcm of the c_k.  On a cone, <p_k, m> = -D_k has the solution
        m = -sum_k D_k n_k / c_k, so L D is Cartier for every divisor D and
        H is a polynomial on each coset of L Cl (Snapper)."""
        return lcm(*(c for facets in self._facets for _, c, _ in facets))

    @cached_property
    def _walls(self):
        """Per wall tau = sigma & sigma', the sparse form w with <w, s> =
        L (D_s . V(tau)) and its sum: L on the ray p_j of sigma' off tau,
        -(L / c_i) <n_i, p_j> on each ray p_i of sigma; zero on P Z^n."""
        rays, period, seen, walls = self.fan.rays, self.period, {}, []
        for cone, facets in zip(self.fan.maximal_cones, self._facets):
            mask = sum(1 << i for i in cone)
            for _, _, j in facets:
                other = seen.setdefault(mask ^ (1 << j), facets)
                if other is not facets:  # the second cone on this wall
                    w = [(i, -(period // c) * dot(v, rays[j])) for v, c, i in other]
                    w = [(i, x) for i, x in w + [(j, period)] if x]
                    walls.append((w, sum(x for _, x in w)))
        return walls

    def nef_side(self, s):
        """True if s is nef, False if -1 - s is, None if neither or the fan
        is not simplicial: nef means D_s . V(tau) >= 0 on every wall."""
        if not self.simplicial:
            return None
        nef = dual = True
        for w, total in self._walls:
            x = sum(c * s[i] for i, c in w)
            nef, dual = nef and x >= 0, dual and x <= -total
            if not (nef or dual):
                return None
        return nef

    @cached_property
    def anticanonical_key(self) -> tuple:
        return self.class_key((1,) * self.r)

    @cached_property
    def ample_key(self):
        """The class of an ample Cartier divisor on a simplicial surface fan,
        None on any other: the integer polygon with the rays as inner normals.
        Its edge lengths l > 0 solve sum l_k p_k = 0, summing over k the
        relation that writes -p_k in its cone; the edges l_k (p_k[1], -p_k[0])
        run counter-clockwise from v = 0, and a_k = -<p_k, v_k>."""
        if self.fan.dim != 2 or not self.simplicial:
            return None
        rays, after, ell = self.fan.rays, {}, [0] * self.r
        for i, j in self.fan.maximal_cones:  # after[i]: the next ray counter-clockwise
            i, j = (i, j) if _det(rays[i], rays[j]) > 0 else (j, i)
            after[i] = j
        for k, p in enumerate(rays):  # det(i, j) p_k + det(j, k) p_i + det(k, i) p_j = 0
            i, j = next(c for c in after.items() if _det(rays[c[1]], p) >= 0 <= _det(p, rays[c[0]]))
            for m, b, c in ((k, i, j), (i, j, k), (j, k, i)):
                ell[m] += _det(rays[b], rays[c])
        a, v, k = [0] * self.r, (0, 0), 0
        for _ in range(self.r):  # v: the vertex where edge k starts
            (x, y), a[k] = rays[k], -dot(rays[k], v)
            v, k = (v[0] + ell[k] * y, v[1] - ell[k] * x), after[k]
        if any(sum(c * a[i] for i, c in w) <= 0 for w, _ in self._walls):
            raise ConsistencyError("ample class", f"polygon with edge lengths {ell} is not ample")
        return self.class_key(a)

    def _coordinate_order(self):
        """The coordinates, narrowest first, of {x : <p_j, x> >= -1}, whose
        vertices times L are the integer vectors -sum_k n_k L / c_k."""
        n, period = self.fan.dim, self.period
        vertices = [[-sum(v[i] * (period // c) for v, c, _ in facets) for i in range(n)]
                    for facets in self._facets]
        widths = [max(x) - min(x) for x in zip(*vertices)]
        return sorted(range(n), key=widths.__getitem__)

    @cached_property
    def frontier(self) -> list:
        """The live walk states (table, mask, cascade) after the first `_depth`
        rays, where every class_divisor is zero: each walk starts from them."""
        states = [(self.c_table, 0, [{}] * self.fan.dim)]
        zero = _halfspaces(self._rays[: self._depth], [0] * self._depth)
        for bit, halfspace in zip(self._bits, zero):
            states = [child for state in states
                      for child in _children(*state, bit, halfspace, (0, 1), [0])]
        return states

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


def _det(p, q):
    return p[0] * q[1] - p[1] * q[0]


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


def _halfspaces(rays, s):
    """Per ray j, the constraint for j in I and the one for j not in I.

    In I: <p_j, q> >= -s_j.  Not in I: <p_j, q> <= -s_j - 1.
    """
    return [((ray, -x), (tuple(-y for y in ray), x + 1)) for ray, x in zip(rays, s)]


def _children(table, mask, levels, bit, halfspace, sides, spent):
    """The children (table, mask, cascade) of a node deciding the ray `bit`
    that neither have an empty table nor an empty extended cascade, on the
    given sides (0: the ray in I, 1: not in I).  spent[0] counts the
    extensions, which may not pass MAX_WALK_EXTENSIONS (ValueError)."""
    tables, masks = _split(table, bit), (mask | bit, mask)
    out = []
    for k in sides:
        if tables[k]:
            spent[0] += 1
            if spent[0] > MAX_WALK_EXTENSIONS:
                raise ValueError(f"H walk passed MAX_WALK_EXTENSIONS = {MAX_WALK_EXTENSIONS}")
            child_levels = extend_cascade(levels, *halfspace[k])
            if child_levels is not None:
                out.append((tables[k], masks[k], child_levels))
    return out


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
    """H(s) = sum over I with chi_I != 0 of chi_I * n_{I,s}: `_h_of_key` at
    the class of s (`class_key`), so linearly equivalent s share one value."""
    s = tuple(s)
    if len(s) != ctx.r:
        raise ValueError("s-vector length must match the number of rays")
    return _h_of_key(ctx, ctx.class_key(s))


def _h_of_key(ctx: HilbertContext, key) -> int:
    """H at the class `key`, memoized per class.  On a simplicial fan a miss
    reads the memo at the Serre-dual class of -1 - s first: H(-1 - s) =
    (-1)^n H(s) (CLS 9.2).  Else H is interpolated along the `ample_key` of
    a surface when neither s nor -1 - s is nef (`nef_side`, `_h_by_shift`),
    and walked (`_walk`) otherwise.
    """
    memo = ctx._h_memo
    if key not in memo and ctx.simplicial:
        dual = ctx.reduce_class([-a - x for a, x in zip(ctx.anticanonical_key, key)])
        if dual in memo:
            memo[key] = (-1) ** ctx.fan.dim * memo[dual]
    if key not in memo:
        s = ctx.class_divisor(key)
        nef = ctx.nef_side(s)
        shift = nef is None and ctx.ample_key is not None
        memo[key] = _h_by_shift(ctx, key, s) if shift else _walk(ctx, key, nef)
    return memo[key]


def _h_by_shift(ctx: HilbertContext, key, s) -> int:
    """H(s) on a surface from H(s + k A), A = `ample_key`, a polynomial in k of
    degree <= 2 (Snapper).  k0 is the least k >= 0 that makes every wall form
    of s + k A nonnegative, so the samples k = k0 .. k0 + 2 are nef and walk
    one branch; H(s) = sum over j <= 2 of their forward differences times
    C(-k0, j)."""
    memo, ample = ctx._h_memo, ctx.ample_key
    a = ctx.class_divisor(ample)
    k0 = max(0, *(-(sum(c * s[i] for i, c in w) // sum(c * a[i] for i, c in w))
                  for w, _ in ctx._walls))
    h = []
    for k in range(k0, k0 + 3):
        sample = ctx.reduce_class([x + k * y for x, y in zip(key, ample)])
        if sample not in memo:  # never shifted again: it is nef
            memo[sample] = _walk(ctx, sample, True)
        h.append(memo[sample])
    return h[0] - k0 * (h[1] - h[0]) + choose(-k0, 2) * (h[2] - 2 * h[1] + h[0])


def _walk(ctx: HilbertContext, key, nef) -> int:
    """H at the class `key` by a depth-first walk over the rays in walk
    order, on the representative `class_divisor(key)` and from the context's
    `frontier`.  A node at depth j has decided for the rays before j whether
    they lie in I, and carries the Fourier-Motzkin cascade of their
    constraints and the c_S reduced to the undecided rays (`_split`).  An
    empty table means chi is zero on the whole branch.  Every live child
    extends its parent's cascade by its one row and is dropped when the
    extension shows it empty.  At a leaf the table is {0: chi_I}, and the
    region is checked bounded and counted, both from the carried cascade.
    When nef is True (s nef) or False (-1 - s nef), only the branch with
    every ray in I (or none) is walked: no other region has chi != 0.
    """
    r, dim, depth, bits = ctx.r, ctx.fan.dim, ctx._depth, ctx._bits
    # the representative class_divisor(key) on the rays after the frontier
    halfspaces = [None] * depth + _halfspaces(ctx._rays[depth:], vec_mat(key, ctx._tail_rows))
    states, sides = ctx.frontier, (0, 1)
    if nef is not None:  # chi != 0 only on I = all rays (nef s) or I = {} (nef -1 - s)
        full, sides = (sum(bits[:depth]), (0,)) if nef else (0, (1,))
        states = [state for state in states if state[1] == full]
    spent = [0]

    def walk(j, table, mask, levels):
        if j == r:
            if not cascade_is_bounded(levels):
                # completeness bounds every region with nonzero chi
                msg = f"unbounded region with nonzero chi for ray set {bin(mask)}"
                raise ConsistencyError("unbounded region", msg)
            return table[0] * _count_levels([level.items() for level in levels], dim)
        total = 0
        for child in _children(table, mask, levels, bits[j], halfspaces[j], sides, spent):
            total += walk(j + 1, *child)
        return total

    return sum(walk(depth, *state) for state in states)


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
    class is evaluated by key (`_h_of_key`), so no coset walks more classes
    than it asks for.  L is the context's `period`.
    """
    keys = set(keys)
    n, f = ctx.fan.dim, ctx.r - ctx.fan.dim
    t = len(ctx._keep) - f  # torsion coordinates lead each key
    samples = comb(f + n, n)
    out = {}
    if ctx.simplicial and len(keys) > samples:
        period = ctx.period
        cosets = {}
        for key in keys:
            coset = key[:t] + tuple(x % period for x in key[t:])
            cosets.setdefault(coset, []).append(key)
        for coset, members in cosets.items():
            if len(members) > samples:
                out.update(_fit_coset(ctx, coset[:t], coset[t:], period, members))
    for key in keys - out.keys():
        out[key] = _h_of_key(ctx, key)
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
    anti = ctx.anticanonical_key[len(torsion):]
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
        diff[k] = _h_of_key(ctx, torsion + tuple(b + period * z for b, z in zip(base, k)))
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
    total = 0
    for tau in range(len(rows) + 1):
        for pick in combinations(rows, tau):
            shift = [-sum(col) for col in zip((0,) * ctx.r, *pick)]
            total += (-1) ** tau * h_of_s(ctx, shift)
    return total
