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

The series is kept as its slices y^0 .. y^pmax, each {class key: coeff}:
H(s) depends only on the divisor class of s, so exponents are class keys
(`HilbertContext.class_key`), and every sum of keys is reduced
(`reduce_class`).  Slice 0 starts as prod_i (1 - x^{d_i}), and each factor
1 + y q or 1 / (1 - y q) is applied in place (`_apply`): slice k gains q
times slice k-1, for k = pmax..1 when multiplying and k = 1..pmax when
dividing.  `chi_all` pairs the slices with P(x) once: each term c x^a of
slice j adds c * H(-a) to the value at p = j, with H taken once per class
by `h_of_classes`, which fits H on the cosets that ask for many classes
instead of walking each.  So every p = 0 .. pmax comes from one series
and one pairing, and `chi_alt` / `chi_sym` / `chi_tensor` read their p
from it.  `wps` codes the same recurrence on its own, so that the fan and
residue engines stay independent of each other.
A second, independently coded evaluation path (`chi_alt_hilbert`) writes
the alternating case as a nested sum of Hilbert values with binomial
weights and is used as a cross-check.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb

from .hilbert import HilbertContext, h_of_classes, h_of_s

# --- series expansion -------------------------------------------------------


# An expansion that holds more key coordinates (terms times key length, so
# that the cap bounds memory for keys of every length) fails fast: the
# tensor series of (P^1)^3 (three coordinates a key) passes it at p = 80.
MAX_SERIES_COORDS = 500_000


def _check_terms(terms: int, width: int):
    """Raise ValueError when `terms` keys of `width` coordinates pass
    MAX_SERIES_COORDS in all."""
    coords = terms * max(width, 1)
    if coords > MAX_SERIES_COORDS:
        raise ValueError(
            f"series expansion holds {coords} key coordinates ({terms} terms) "
            f"so far; the supported maximum is {MAX_SERIES_COORDS}"
        )


def _apply(series, q: dict, divide: bool, reduce, width: int):
    """Multiply the slices by 1 + y q, or divide them by 1 - y q, in place.

    `series[k]` is the y^k slice {class key: coeff}, without zero
    coefficients, and q is {class key: coeff}.  Slice k gains q times slice
    k-1: the old slice to multiply (k runs down), the new one to divide (k
    runs up).  Key sums go through `reduce`.  Slice k takes len(q) times
    len(slice k-1) additions, and the terms held are checked against
    MAX_SERIES_COORDS after each slice, so the work between two checks is
    at most len(q) times the terms held: with a one-term q, at most the
    terms already held.
    """
    held = sum(map(len, series))
    for k in range(1, len(series)) if divide else range(len(series) - 1, 0, -1):
        acc, before = series[k], len(series[k])
        for e, c in q.items():
            shift = any(e)
            for f, a in series[k - 1].items():
                key = reduce([x + y for x, y in zip(e, f)]) if shift else f
                v = acc.get(key, 0) + c * a
                if v:
                    acc[key] = v
                else:
                    del acc[key]
        held += len(acc) - before
        _check_terms(held, width)


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


def _series(ctx, degrees, kind: str, pmax: int) -> list:
    """Slices y^0 .. y^pmax of the series of one form type ("alt", "sym" or
    "tensor"), each {class key: coeff} without zero coefficients.

    Slice 0 starts as prod_i (1 - x^{d_i}); every factor in y is then
    applied in place by `_apply`, its sums reduced by `ctx.reduce_class`.
    """
    rows = [ctx.class_key(d) for d in _checked_rows(ctx, degrees, pmax)]
    m, r = ctx.fan.dim, ctx.r
    zero = ctx.class_key((0,) * r)
    width, reduce = len(zero), ctx.reduce_class
    _check_terms(pmax + 1, width)  # fail before allocating when one term a slice passes
    units = [ctx.class_key(tuple(int(i == j) for i in range(r))) for j in range(r)]
    if kind == "alt":
        # prod_j (1 + y x_j) / (1 + y)^(r-m) / prod_i (1 + y x^{d_i})
        steps = [({u: 1}, False) for u in units] + [({zero: -1}, True)] * (r - m)
        steps += [({d: -1}, True) for d in rows]
    elif kind == "sym":
        # prod_i (1 - y x^{d_i}) * (1 - y)^(r-m) / prod_j (1 - y x_j)
        steps = [({d: -1}, False) for d in rows] + [({zero: -1}, False)] * (r - m)
        steps += [({u: 1}, True) for u in units]
    elif kind == "tensor":
        # 1 / (1 - y L), L = sum_j x_j + m - r - sum_i x^{d_i}
        lin = Counter(units)
        lin[zero] += m - r
        lin.subtract(rows)
        steps = [({e: c for e, c in lin.items() if c}, True)]
    else:
        raise ValueError(f"unknown form kind {kind!r}")
    base = {zero: 1}
    for d in rows:
        for e, a in list(base.items()):
            key = reduce([x + y for x, y in zip(e, d)])
            v = base.get(key, 0) - a
            if v:
                base[key] = v
            else:
                del base[key]
    series = [base] + [{} for _ in range(pmax)]
    for q, divide in steps:
        _apply(series, q, divide, reduce, width)
    return series


def chi_all(ctx: HilbertContext, degrees, kind: str, pmax: int) -> list:
    """Euler characteristics of the p-forms of `kind` for p = 0 .. pmax.

    One series modulo y^(pmax+1) in class keys serves every p: each term
    q_a x^a of slice j adds q_a * H(-a) to the value at p = j (-a by
    `reduce_class`).  H is taken once per class, all keys in one
    `h_of_classes` call: a coset of L Cl that asks for more classes than
    its fit has samples is fitted, so at large p only the samples are walked.
    """
    series = _series(ctx, degrees, kind, pmax)
    minus = {a: ctx.reduce_class([-x for x in a]) for a in set().union(*series)}
    h = h_of_classes(ctx, minus.values())
    return [sum(c * h[minus[a]] for a, c in piece.items()) for piece in series]


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
