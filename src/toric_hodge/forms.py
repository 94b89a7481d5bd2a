"""Euler characteristics of sheaves of differential p-forms.

For a complete intersection cut out by k equations on a complete
simplicial toric variety with r rays, the Euler characteristics of the
alternating, symmetric and unconstrained tensor powers of the cotangent
sheaf are coefficients of x^0 y^p in a product of the ray-graded Poincare
series P(x) with an explicit rational factorization:

  alternating:  P(x) * prod_j (1 + y x_j) / (1+y)^(r-m)
                     * prod_i (1 - x^{d_i}) / (1 + y x^{d_i})
  symmetric:    P(x) * prod_i (1 - x^{d_i})(1 - y x^{d_i}) * (1-y)^(r-m)
                     / prod_j (1 - y x_j)
  tensor:       P(x) * prod_i (1 - x^{d_i})
                     / (1 - y (x_1 + .. + x_r + m - r - sum_i x^{d_i}))

Each factor is a term dict {(x-exponent, y-power): coeff}, written out
exactly modulo y^(pmax+1), and `y_truncated_expand` multiplies them into
one expansion.  H(s) depends only on the divisor class of s, so exponents
are class keys (`HilbertContext.class_key`), reduced after each sum.
`chi_all` pairs the expansion with P(x) once: each term q x^a y^j adds
q * H(-s), s of class a, to the value at p = j, with H taken once per class
by `h_of_classes`, which fits H on the cosets that ask for many classes
instead of walking each.  So every p = 0 .. pmax comes from one expansion
and one pairing, and `chi_alt` / `chi_sym` / `chi_tensor` read their p
from it.
A second, independently coded evaluation path (`chi_alt_hilbert`) writes
the alternating case as a nested sum of Hilbert values with binomial
weights and is used as a cross-check.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations
from math import comb

from .hilbert import HilbertContext, choose, h_of_classes, h_of_s

# --- series expansion -------------------------------------------------------


# Expansions that hold more key coordinates (terms times key length, so
# that the cap bounds memory for keys of every length), and products that
# combine more pairs of terms within the y-truncation, fail fast: the
# tensor series of (P^1)^3 (three coordinates a key) passes the first cap
# at p = 80, and one product of the symmetric series of P^1 x P^1 at
# p = 240 combines 7.0 million such pairs.
MAX_SERIES_COORDS = 500_000
MAX_SERIES_PAIRS = 5_000_000


def _check_terms(terms, width: int):
    """Raise ValueError when the terms' keys of `width` coordinates pass
    MAX_SERIES_COORDS in all."""
    coords = len(terms) * max(width, 1)
    if coords > MAX_SERIES_COORDS:
        raise ValueError(
            f"series expansion holds {coords} key coordinates ({len(terms)} terms) "
            f"so far; the supported maximum is {MAX_SERIES_COORDS}"
        )


def _multiply(a, b, p: int, reduce, width: int):
    """Product of two term dicts modulo y^(p+1), without zero terms.

    Exponent sums, of `width` coordinates, go through `reduce`.  Raises
    ValueError past MAX_SERIES_PAIRS pairs of terms whose y-powers sum to
    at most p, checked first, or past MAX_SERIES_COORDS key coordinates.
    """
    sizes = Counter(j for _, j in b)
    below = list(accumulate(sizes[j] for j in range(p + 1)))  # y-power <= j
    pairs = sum(below[p - j] for _, j in a if j <= p)
    if pairs > MAX_SERIES_PAIRS:
        msg = f"series product combines {pairs} pairs of terms"
        raise ValueError(f"{msg}; the supported maximum is {MAX_SERIES_PAIRS}")
    out = {}
    for (e1, j1), c1 in a.items():
        for (e2, j2), c2 in b.items():
            j = j1 + j2
            if j > p:
                continue
            key = (reduce([x + y for x, y in zip(e1, e2)]), j)
            out[key] = out.get(key, 0) + c1 * c2
        _check_terms(out, width)
    return {k: v for k, v in out.items() if v}


def y_truncated_expand(factors, p: int, dim: int, reduce=tuple):
    """Exact product of all factors modulo y^(p+1).

    Each factor and the result are sparse Laurent polynomials
    {(x-exponent tuple, y-power): int}, in Z^dim with `reduce` = tuple, or
    in class keys with a Hilbert context's `reduce_class`.  Every exponent
    must have length dim (ValueError): `_multiply` adds exponents with a
    plain zip, which would cut a longer one short.
    """
    if p < 0:
        raise ValueError("negative truncation order")
    factors = list(factors)
    if any(len(e) != dim for terms in factors for e, _ in terms):
        raise ValueError(f"series exponents must have length {dim}")
    result = {((0,) * dim, 0): 1}
    for terms in factors:
        result = _multiply(result, terms, p, reduce, dim)
    return result


# --- the three form types ---------------------------------------------------


def _checked_rows(ctx, degrees, p):
    """Degree rows of a form-sheaf problem, after the shared input checks."""
    if not ctx.simplicial:
        raise ValueError("form-sheaf Euler characteristics require a simplicial fan")
    rows = [tuple(row) for row in degrees]
    for row in rows:
        if len(row) != ctx.r:
            raise ValueError("degree row length must match the number of rays")
    if p < 0:
        raise ValueError("negative form degree")
    return rows


def _factors(ctx, degrees, kind: str, p: int):
    """The series factors of one form type ("alt", "sym" or "tensor").

    Each factor is a term dict written out modulo y^(p+1), its exponents
    class keys (`ctx.class_key`, sums reduced by `ctx.reduce_class`).
    """
    rows = [ctx.class_key(d) for d in _checked_rows(ctx, degrees, p)]
    m, r = ctx.fan.dim, ctx.r
    zero = ctx.class_key((0,) * r)
    # with p + 1 terms past the cap, `_multiply` fails anyway: fail before building
    _check_terms(range(p + 1), len(zero))
    units = [ctx.class_key(tuple(int(i == j) for i in range(r))) for j in range(r)]

    def binomial(c, j, e):
        # 1 + c y^j x^e; with j = 0 and e = 0 the two terms share one key
        out = {(zero, 0): 1}
        out[(e, j)] = out.get((e, j), 0) + c
        return out

    def geometric(c, e):
        # 1 / (1 - c y x^e)
        return {(tuple(j * x for x in e), j): c**j for j in range(p + 1)}

    def scalar_power(c, e):
        # (1 + c y)^e for an integer e of either sign
        return {(zero, j): choose(e, j) * c**j for j in range(p + 1)}

    if kind == "alt":
        factors = [binomial(1, 1, u) for u in units]
        factors.append(scalar_power(1, m - r))
        for d in rows:
            factors += [binomial(-1, 0, d), geometric(-1, d)]
        return factors
    if kind == "sym":
        factors = []
        for d in rows:
            factors += [binomial(-1, 0, d), binomial(-1, 1, d)]
        factors.append(scalar_power(-1, r - m))
        factors += [geometric(1, u) for u in units]
        return factors
    if kind == "tensor":
        # 1 / (1 - y L(x)) = sum_j (y L(x))^j, with yL as a term dict
        y_form = {}
        terms = [(u, 1) for u in units] + [(zero, m - r)] + [(d, -1) for d in rows]
        for e, c in terms:
            y_form[(e, 1)] = y_form.get((e, 1), 0) + c
        power = {(zero, 0): 1}
        inverse = dict(power)
        for _ in range(p):
            power = _multiply(power, y_form, p, ctx.reduce_class, len(zero))
            inverse.update(power)
            _check_terms(inverse, len(zero))
        return [binomial(-1, 0, d) for d in rows] + [inverse]
    raise ValueError(f"unknown form kind {kind!r}")


def chi_all(ctx: HilbertContext, degrees, kind: str, pmax: int) -> list:
    """Euler characteristics of the p-forms of `kind` for p = 0 .. pmax.

    One expansion modulo y^(pmax+1) in class keys serves every p: each term
    q_{a,j} x^a y^j adds q_{a,j} * H(-a) to the value at p = j (-a by
    `reduce_class`).  H is taken once per class, all keys in one
    `h_of_classes` call: a coset of L Cl that asks for more classes than
    its fit has samples is fitted, so at large p only the samples are walked.
    """
    factors = _factors(ctx, degrees, kind, pmax)
    dim = len(ctx.class_key((0,) * ctx.r))
    expanded = y_truncated_expand(factors, pmax, dim, ctx.reduce_class)
    minus = {a: ctx.reduce_class([-x for x in a]) for a in {a for a, _ in expanded}}
    h = h_of_classes(ctx, minus.values())
    values = [0] * (pmax + 1)
    for (a, j), c in expanded.items():
        values[j] += c * h[minus[a]]
    return values


def chi_alt(ctx: HilbertContext, degrees, p: int) -> int:
    """Euler characteristic of the sheaf of alternating p-forms."""
    return chi_all(ctx, degrees, "alt", p)[p]


def chi_sym(ctx: HilbertContext, degrees, p: int) -> int:
    """Euler characteristic of the sheaf of symmetric p-th powers."""
    return chi_all(ctx, degrees, "sym", p)[p]


def chi_tensor(ctx: HilbertContext, degrees, p: int) -> int:
    """Euler characteristic of the p-th unconstrained tensor power."""
    return chi_all(ctx, degrees, "tensor", p)[p]


def chi_alt_hilbert(ctx: HilbertContext, degrees, p: int) -> int:
    """Alternating p-forms via nested Hilbert sums (independent route).

    Expanding the same series factor by factor in closed form gives

      sum over rho-subsets J of rays, tau-subsets L of equations and
      multi-indices (i_1..i_k) with rho + sum(i) <= p of
        (-1)^(p + tau - rho) * C(r - m - 1 + a, a) *
          H(-sum e_J - sum d_L - sum i_t d_t),   a = p - rho - sum(i).

    The binomial weight is the y^a coefficient of (1+y)^(m-r) up to sign;
    it collapses to 1 exactly when r = m + 1 (projective-like fans).
    """
    rows = _checked_rows(ctx, degrees, p)
    m = ctx.fan.dim
    r = ctx.r
    k = len(rows)
    total = 0

    def multi_indices(budget, slots):
        if slots == 0:
            yield ()
            return
        for first in range(budget + 1):
            for rest in multi_indices(budget - first, slots - 1):
                yield (first,) + rest

    for rho in range(0, min(r, p) + 1):
        for i_vec in multi_indices(p - rho, k):
            a = p - rho - sum(i_vec)
            weight = comb(r - m - 1 + a, a)
            if weight == 0:
                continue
            base = [0] * r
            for t, mult in enumerate(i_vec):
                for j in range(r):
                    base[j] -= mult * rows[t][j]
            for rays_pick in combinations(range(r), rho):
                shift = list(base)
                for j in rays_pick:
                    shift[j] -= 1
                for tau in range(k + 1):
                    sign = (-1) ** (p + tau - rho)
                    for eq_pick in combinations(range(k), tau):
                        s = list(shift)
                        for t in eq_pick:
                            for j in range(r):
                                s[j] -= rows[t][j]
                        total += sign * weight * h_of_s(ctx, tuple(s))
    return total
