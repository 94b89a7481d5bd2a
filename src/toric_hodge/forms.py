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

Every factor is expanded exactly modulo y^(p+1); the pairing against P(x)
is H(-s) per x-monomial, evaluated through the Hilbert context.  `chi_all`
expands once up to y^pmax and reads every p = 0 .. pmax from that one
expansion; `chi_alt` / `chi_sym` / `chi_tensor` pair only the y^p terms of
an expansion to y^p, for a single p.  A second, independently coded
evaluation path (`chi_alt_hilbert`) writes the alternating case as a
nested sum of Hilbert values with binomial weights and is used as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .hilbert import HilbertContext, h_of_s

# --- series factors ---------------------------------------------------------
# A factorization is a sequence of the factor objects below; each knows how
# to expand itself exactly modulo y^(p+1) as {(x-exponent, y-power): coeff}.


@dataclass(frozen=True)
class YMonomialBinomial:
    """(1 + sign * y * x^exponent)"""

    exponent: tuple
    sign: int = 1


@dataclass(frozen=True)
class XMonomialBinomial:
    """(1 - x^exponent)"""

    exponent: tuple


@dataclass(frozen=True)
class GeometricInverse:
    """1 / (1 + sign * y * x^exponent), expanded as a geometric series in y."""

    exponent: tuple
    sign: int = 1


@dataclass(frozen=True)
class ScalarBinomialPower:
    """(1 + sign * y)^exponent with exponent of either sign."""

    exponent: int
    sign: int = 1


@dataclass(frozen=True)
class LinearFormInverse:
    """1 / (1 - y * L(x)) for a Laurent polynomial L given as {exp: coeff}."""

    form: tuple  # tuple of (exponent tuple, integer coefficient)


def _zero_exp(dim):
    return tuple([0] * dim)


def _binomial_coeff(e: int, j: int) -> int:
    # coefficient of y^j in (1 + y)^e, for any integer e
    if e >= 0:
        return comb(e, j) if j <= e else 0
    return (-1) ** j * comb(-e + j - 1, j)


def _factor_terms(factor, p: int, dim: int):
    zero = _zero_exp(dim)
    if isinstance(factor, YMonomialBinomial):
        out = {(zero, 0): 1}
        if p >= 1:
            out[(tuple(factor.exponent), 1)] = factor.sign
        return out
    if isinstance(factor, XMonomialBinomial):
        out = {(zero, 0): 1}
        e = tuple(factor.exponent)
        out[(e, 0)] = out.get((e, 0), 0) - 1
        return {k: v for k, v in out.items() if v}
    if isinstance(factor, GeometricInverse):
        d = tuple(factor.exponent)
        out = {}
        for j in range(p + 1):
            e = tuple(j * x for x in d)
            out[(e, j)] = (-factor.sign) ** j
        return out
    if isinstance(factor, ScalarBinomialPower):
        out = {}
        for j in range(p + 1):
            c = _binomial_coeff(factor.exponent, j) * factor.sign**j
            if c:
                out[(zero, j)] = c
        return out
    if isinstance(factor, LinearFormInverse):
        form = {tuple(e): c for e, c in factor.form}
        out = {(zero, 0): 1}
        power = {zero: 1}
        for j in range(1, p + 1):
            nxt = {}
            for e1, c1 in power.items():
                for e2, c2 in form.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    nxt[e] = nxt.get(e, 0) + c1 * c2
            power = {e: c for e, c in nxt.items() if c}
            for e, c in power.items():
                out[(e, j)] = c
        return out
    raise ValueError(f"unknown series factor {factor!r}")


def y_truncated_expand(factors, p: int, dim: int):
    """Exact product of all factors modulo y^(p+1).

    Returns a sparse Laurent polynomial {(x-exponent tuple, y-power): int}.
    """
    if p < 0:
        raise ValueError("negative truncation order")
    result = {(_zero_exp(dim), 0): 1}
    for factor in factors:
        terms = _factor_terms(factor, p, dim)
        nxt = {}
        for (e1, j1), c1 in result.items():
            for (e2, j2), c2 in terms.items():
                j = j1 + j2
                if j > p:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                key = (e, j)
                nxt[key] = nxt.get(key, 0) + c1 * c2
        result = {k: v for k, v in nxt.items() if v}
    return result


def coeff_x0_yp(ctx: HilbertContext, factors, p: int) -> int:
    """Coefficient of x^0 y^p in P(x) times the given factorization.

    The expansion contributes q_{s,p} x^s at y-degree p; pairing with P(x)
    turns each into q_{s,p} * H(-s).
    """
    expanded = y_truncated_expand(factors, p, ctx.r)
    total = 0
    for (e, j), c in expanded.items():
        if j != p:
            continue
        total += c * h_of_s(ctx, tuple(-x for x in e))
    return total


# --- the three form types ---------------------------------------------------


def _unit(ctx, j):
    e = [0] * ctx.r
    e[j] = 1
    return tuple(e)


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
    """The series factorization of one form type ("alt", "sym" or "tensor")."""
    rows = _checked_rows(ctx, degrees, p)
    m = ctx.fan.dim
    if kind == "alt":
        factors = [YMonomialBinomial(_unit(ctx, j), 1) for j in range(ctx.r)]
        factors.append(ScalarBinomialPower(m - ctx.r, 1))
        for d in rows:
            factors.append(XMonomialBinomial(d))
            factors.append(GeometricInverse(d, 1))
        return factors
    if kind == "sym":
        factors = []
        for d in rows:
            factors.append(XMonomialBinomial(d))
            factors.append(YMonomialBinomial(d, -1))
        factors.append(ScalarBinomialPower(ctx.r - m, -1))
        for j in range(ctx.r):
            factors.append(GeometricInverse(_unit(ctx, j), -1))
        return factors
    if kind == "tensor":
        form = {}
        for j in range(ctx.r):
            e = _unit(ctx, j)
            form[e] = form.get(e, 0) + 1
        zero = _zero_exp(ctx.r)
        form[zero] = form.get(zero, 0) + (m - ctx.r)
        for d in rows:
            form[d] = form.get(d, 0) - 1
        factors = [XMonomialBinomial(d) for d in rows]
        factors.append(LinearFormInverse(tuple(sorted(form.items()))))
        return factors
    raise ValueError(f"unknown form kind {kind!r}")


def chi_all(ctx: HilbertContext, degrees, kind: str, pmax: int) -> list:
    """Euler characteristics of the p-forms of `kind` for p = 0 .. pmax.

    One expansion modulo y^(pmax+1) serves every p: each term q_{s,j} x^s y^j
    adds q_{s,j} * H(-s) to the value at p = j.
    """
    expanded = y_truncated_expand(_factors(ctx, degrees, kind, pmax), pmax, ctx.r)
    values = [0] * (pmax + 1)
    for (e, j), c in expanded.items():
        values[j] += c * h_of_s(ctx, tuple(-x for x in e))
    return values


def chi_alt(ctx: HilbertContext, degrees, p: int) -> int:
    """Euler characteristic of the sheaf of alternating p-forms."""
    return coeff_x0_yp(ctx, _factors(ctx, degrees, "alt", p), p)


def chi_sym(ctx: HilbertContext, degrees, p: int) -> int:
    """Euler characteristic of the sheaf of symmetric p-th powers."""
    return coeff_x0_yp(ctx, _factors(ctx, degrees, "sym", p), p)


def chi_tensor(ctx: HilbertContext, degrees, p: int) -> int:
    """Euler characteristic of the p-th unconstrained tensor power."""
    return coeff_x0_yp(ctx, _factors(ctx, degrees, "tensor", p), p)


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
