"""Independent reference values for the benchmark's correctness checks.

Nothing here imports toric_hodge: every value is recomputed from closed
formulas with its own small integer arithmetic, so a fault in the program
cannot hide in a shared code path.

* Complete intersections in products of weighted projective spaces: the
  Euler sequence 0 -> Omega -> sum O(-w_i) -> O -> 0 on each factor and the
  conormal sequence of the equations give the K-theory classes of the
  alternating, symmetric and tensor powers of Omega_X as Laurent polynomials
  in the factors' O(1).  chi of O(a) on X is a Koszul alternating sum of
  chi on the ambient space, where chi(P(w), O(a)) counts monomials of
  weighted degree a (Serre duality for a <= -sum w).
* The Lefschetz hyperplane theorem turns those Euler numbers into the Hodge
  diamond of an ample complete intersection.
* Quasi-smooth weighted hypersurfaces: the Griffiths-Steenbrink Jacobian
  ring series gives the primitive middle Hodge numbers.
* Generic complete intersections in a torus with simplex Newton polytopes
  d_i * conv(0, e_1, .., e_m): the Khovanskii/BKK Euler number
  (-1)^(m-k) * sum over a_1 + .. + a_k = m, a_i >= 1 of prod d_i^a_i.
* Lattice points of a rational polygon by a direct scan of its bounding box.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor, gcd

# --- weighted monomial counts ------------------------------------------------


@lru_cache(maxsize=None)
def _monomial_counts(weights: tuple, top: int) -> tuple:
    """N[a] = number of monomials of weighted degree a, for a = 0..top."""
    counts = [1] + [0] * top
    for w in weights:
        for a in range(w, top + 1):
            counts[a] += counts[a - w]
    return tuple(counts)


def monomials_of_degree(weights, a: int) -> int:
    if a < 0:
        return 0
    return _monomial_counts(tuple(weights), a)[a]


def chi_weighted_projective(weights, a: int) -> int:
    """chi(P(w), O(a)): H^0 in degrees >= 0, H^m in degrees <= -sum(w)."""
    m = len(weights) - 1
    if a >= 0:
        return monomials_of_degree(weights, a)
    return (-1) ** m * monomials_of_degree(weights, -a - sum(weights))


# --- K-theory of complete intersections --------------------------------------
# A class is {exponent tuple (one entry per factor): integer coefficient},
# standing for sum coeff * O(exponent).


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _series_mul(a: list, b: list, order: int) -> list:
    """Product of two y-series of classes, truncated after y^order."""
    out = [{} for _ in range(order + 1)]
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            if i + j <= order and x and z:
                out[i + j] = _add(out[i + j], _mul(x, z))
    return out


def _line(exponent) -> dict:
    return {tuple(exponent): 1}


def _block_exponent(nblocks: int, block: int, value: int) -> tuple:
    return tuple(value if i == block else 0 for i in range(nblocks))


def _omega_class(blocks, degrees) -> dict:
    """[Omega_X] = sum_b (sum_i O_b(-w_bi) - O) - sum_j O(-d_j)."""
    nb = len(blocks)
    zero = (0,) * nb
    cls = {}
    for b, weights in enumerate(blocks):
        for w in weights:
            cls = _add(cls, _line(_block_exponent(nb, b, -w)))
        cls = _add(cls, {zero: 1}, -1)
    for d in degrees:
        cls = _add(cls, _line(tuple(-x for x in d)), -1)
    return cls


def _geometric(exponent, sign: int, order: int) -> list:
    """1 / (1 - sign * y * O(exponent)) up to y^order."""
    return [{tuple(k * x for x in exponent): sign**k} for k in range(order + 1)]


def _linear(exponent, sign: int, order: int) -> list:
    """1 + sign * y * O(exponent) up to y^order."""
    out = [_line(tuple(0 for _ in exponent))]
    if order >= 1:
        out.append({tuple(exponent): sign})
    return out + [{} for _ in range(order + 1 - len(out))]


def form_class(blocks, degrees, kind: str, p: int) -> dict:
    """K-theory class of the p-th alternating/symmetric/tensor power of Omega_X."""
    if kind not in ("alt", "sym", "tensor"):
        raise ValueError(f"unknown kind {kind!r}")
    nb = len(blocks)
    zero = (0,) * nb
    if kind == "tensor":
        omega = _omega_class(blocks, degrees)
        cls = {zero: 1}
        for _ in range(p):
            cls = _mul(cls, omega)
        return cls
    series = [{zero: 1}] + [{} for _ in range(p)]
    for b, weights in enumerate(blocks):
        for w in weights:
            e = _block_exponent(nb, b, -w)
            factor = _linear(e, 1, p) if kind == "alt" else _geometric(e, 1, p)
            series = _series_mul(series, factor, p)
        # the trivial summand O of the Euler sequence
        factor = _geometric(zero, -1, p) if kind == "alt" else _linear(zero, -1, p)
        series = _series_mul(series, factor, p)
    for d in degrees:
        e = tuple(-x for x in d)
        factor = _geometric(e, -1, p) if kind == "alt" else _linear(e, -1, p)
        series = _series_mul(series, factor, p)
    return series[p]


def chi_line_bundle(blocks, degrees, exponent) -> int:
    """chi(X, O(exponent)) by the Koszul resolution of the equations."""
    total = 0
    k = len(degrees)
    for size in range(k + 1):
        for pick in combinations(range(k), size):
            shifted = list(exponent)
            for i in pick:
                shifted = [a - b for a, b in zip(shifted, degrees[i])]
            val = 1
            for weights, a in zip(blocks, shifted):
                val *= chi_weighted_projective(weights, a)
            total += (-1) ** size * val
    return total


def chi_forms(blocks, degrees, kind: str, p: int) -> int:
    """chi(X, F^p Omega_X) for F = alternating, symmetric or tensor powers.

    `blocks` lists the weight vectors of the projective factors and every
    entry of `degrees` gives one equation's degree on each factor.
    """
    cls = form_class(blocks, degrees, kind, p)
    return sum(c * chi_line_bundle(blocks, degrees, e) for e, c in cls.items())


def ci_dimension(blocks, degrees) -> int:
    return sum(len(w) - 1 for w in blocks) - len(degrees)


# --- Hodge diamonds -------------------------------------------------------------


def lefschetz_diamond(blocks, degrees) -> list:
    """Hodge diamond of a smooth ample complete intersection in a product.

    Off the middle row the numbers are those of the ambient space (Lefschetz);
    the middle row follows from chi(Omega^p) = sum_q (-1)^q h^{pq}.
    """
    n = ci_dimension(blocks, degrees)
    ambient = [1]
    for weights in blocks:
        ambient = [
            sum(ambient[i - j] for j in range(len(weights)) if 0 <= i - j < len(ambient))
            for i in range(len(ambient) + len(weights) - 1)
        ]
    h = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        if 2 * p != n:
            h[p][p] = ambient[min(p, n - p)]
    for p in range(n + 1):
        chi_p = chi_forms(blocks, degrees, "alt", p)
        rest = sum((-1) ** q * h[p][q] for q in range(n + 1) if q != n - p)
        h[p][n - p] = (-1) ** (n - p) * (chi_p - rest)
    return h


def _series_coefficient(numerator_exps, denominator_exps, target: int) -> int:
    """Coefficient of t^target in prod (1 - t^a) / prod (1 - t^b)."""
    if target < 0:
        return 0
    poly = [1] + [0] * target
    for a in numerator_exps:
        for i in range(target, a - 1, -1):
            poly[i] -= poly[i - a]
    for b in denominator_exps:
        for i in range(b, target + 1):
            poly[i] += poly[i - b]
    return poly[target]


def jacobian_diamond(weights, degree: int) -> list:
    """Hodge diamond of a quasi-smooth hypersurface of the given degree in P(w).

    Griffiths-Steenbrink: h^{n-p,p}_prim is the coefficient of
    t^((p+1)d - sum w) in prod (1 - t^(d - w_i)) / (1 - t^(w_i)).
    """
    n = len(weights) - 2
    h = [[int(p == q and p + q != n) for q in range(n + 1)] for p in range(n + 1)]
    for p in range(n + 1):
        prim = _series_coefficient(
            [degree - w for w in weights], list(weights), (p + 1) * degree - sum(weights)
        )
        h[n - p][p] = prim + int(2 * p == n)
    return h


def _representable(value: int, weights) -> bool:
    return value >= 0 and monomials_of_degree(tuple(sorted(weights)), value) > 0


def is_quasi_smooth(weights, degree: int) -> bool:
    """Iano-Fletcher's criterion for a general hypersurface of degree d in P(w).

    For every nonempty set I of variables, either some monomial in x_I has
    degree d, or at least |I| distinct variables x_e outside I each make a
    monomial x_I^M x_e of degree d.
    """
    idx = range(len(weights))
    for size in range(1, len(weights) + 1):
        for subset in combinations(idx, size):
            sub = [weights[i] for i in subset]
            if _representable(degree, sub):
                continue
            partners = sum(
                1 for e in idx if e not in subset and _representable(degree - weights[e], sub)
            )
            if partners < size:
                return False
    return True


def is_well_formed_hypersurface(weights, degree: int) -> bool:
    """P(w) well formed, and gcd of any n-1 of the n+1 weights divides d."""
    n = len(weights) - 1
    for rest in combinations(weights, n):
        g = 0
        for w in rest:
            g = gcd(g, w)
        if g != 1:
            return False
    for rest in combinations(weights, n - 1):
        g = 0
        for w in rest:
            g = gcd(g, w)
        if degree % g:
            return False
    return True


def calabi_yau_weights(nvars: int, max_degree: int) -> list:
    """Sorted weight vectors w with d = sum(w) <= max_degree whose degree-d
    hypersurface is well formed and quasi-smooth (K3 surfaces for 4
    variables, Calabi-Yau threefolds for 5)."""
    found = []

    def rec(prefix, budget):
        if len(prefix) == nvars:
            d = sum(prefix)
            if (
                is_well_formed_hypersurface(prefix, d)
                and is_quasi_smooth(prefix, d)
            ):
                found.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 1
        slots = nvars - len(prefix)
        for w in range(lo, budget // slots + 1):
            rec(prefix + [w], budget - w)

    rec([], max_degree)
    return found


# --- torus complete intersections ------------------------------------------------


def bkk_euler_simplices(m: int, degrees) -> int:
    """Euler number of a generic CI in (C*)^m with supports d_i * standard simplex."""
    k = len(degrees)
    total = 0
    for split in product(range(1, m + 1), repeat=k):
        if sum(split) == m:
            term = 1
            for d, a in zip(degrees, split):
                term *= d ** a
            total += term
    return (-1) ** (m - k) * total


# --- lattice points of a polygon ------------------------------------------------


def polygon_lattice_points(rays, t) -> int:
    """#{q in Z^2 : <p_j, q> >= -t_j for all j}, by scanning the bounding box."""
    xs, ys = [], []
    lines = list(zip(rays, t))
    for (a, ta), (b, tb) in combinations(lines, 2):
        det = a[0] * b[1] - a[1] * b[0]
        if det == 0:
            continue
        # solve <a,q> = -ta, <b,q> = -tb
        x = Fraction(-ta * b[1] + tb * a[1], det)
        y = Fraction(-tb * a[0] + ta * b[0], det)
        if all(r[0] * x + r[1] * y >= -s for r, s in lines):
            xs.append(x)
            ys.append(y)
    if not xs:
        return 0
    count = 0
    for x in range(ceil(min(xs)), floor(max(xs)) + 1):
        for y in range(ceil(min(ys)), floor(max(ys)) + 1):
            if all(r[0] * x + r[1] * y >= -s for r, s in lines):
                count += 1
    return count

