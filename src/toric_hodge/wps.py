"""Weighted projective spaces: residue formulas and Lefschetz diamonds.

For coprime weights w_0..w_m the Hilbert function of the corresponding
fan has a closed residue form: counting q with <p_j, q> >= -s_j amounts to
extracting the coefficient of 1/x in

    x^(-1) * prod_j x^(-w_j s_j) / (1 - x^{w_j}),

and H(s) is the sum of the residues at 0 and at infinity.  The same
substitution x_j -> x^{w_j} converts the form-sheaf series into a single
exact univariate residue per y-power, which is how `wps_chi` evaluates the
alternating / symmetric / tensor Euler characteristics.

For a quasi-smooth complete intersection of dimension n in a weighted
projective space, rational cohomology below the middle degree agrees with
the ambient space, so h^{pq} = delta_{pq} off the anti-diagonal p+q = n and
the anti-diagonal is recovered from the Euler numbers e^p = (-1)^p chi of
the p-form sheaf (`wps_hodge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import ConsistencyError
from .fans import Fan
from .hodge_tables import EPQTable
from .lattice import primitive, smith_normal_form, vec_mat

# --- dense univariate polynomials over Fraction ------------------------------


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_scale(c, a):
    return _trim([c * x for x in a])


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / Fraction(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] * inv
        if coef != 0:
            q[i] = coef
            for j, y in enumerate(b):
                a[i + j] -= coef * y
    return _trim(q), _trim(a)


def _poly_gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        a = poly_scale(1 / Fraction(a[-1]), a)
    return a


@dataclass(frozen=True)
class RationalFunction:
    """Reduced rational function num/den over exact rationals.

    Stored with gcd(num, den) = 1 and monic denominator, so structural
    equality is mathematical equality.
    """

    num: tuple
    den: tuple

    def __post_init__(self):
        num = _trim(tuple(Fraction(x) for x in self.num))
        den = _trim(tuple(Fraction(x) for x in self.den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num, _ = _poly_divmod(num, g)
                den, _ = _poly_divmod(den, g)
        else:
            den = (Fraction(1),)
        lead = den[-1]
        if lead != 1:
            num = poly_scale(1 / lead, num)
            den = poly_scale(1 / lead, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors --
    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction((Fraction(c),), (Fraction(1),))

    @staticmethod
    def x_power(e: int) -> "RationalFunction":
        if e >= 0:
            return RationalFunction(tuple([0] * e + [1]), (1,))
        return RationalFunction((1,), tuple([0] * (-e) + [1]))

    @staticmethod
    def from_poly(coeffs) -> "RationalFunction":
        return RationalFunction(tuple(coeffs), (1,))

    # -- arithmetic --
    def __add__(self, other):
        return RationalFunction(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    def __sub__(self, other):
        return self + other * RationalFunction.const(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        return RationalFunction(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError
        return RationalFunction(
            poly_mul(self.num, other.den), poly_mul(self.den, other.num)
        )

    def is_zero(self):
        return not self.num


RF_ZERO = RationalFunction((), (1,))
RF_ONE = RationalFunction.const(1)


def _series_quotient(num, den, order: int):
    """First `order`+1 Taylor coefficients of num/den, den(0) != 0."""
    inv0 = 1 / Fraction(den[0])
    out = []
    for n in range(order + 1):
        acc = Fraction(num[n]) if n < len(num) else Fraction(0)
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc * inv0)
    return out


def residue_zero(f: RationalFunction) -> Fraction:
    """Coefficient of 1/x in the Laurent expansion of f at the origin."""
    den = f.den
    v = 0
    while v < len(den) and den[v] == 0:
        v += 1
    if v == 0:
        return Fraction(0)
    den0 = den[v:]
    coeffs = _series_quotient(f.num, den0, v - 1)
    return coeffs[v - 1]


def residue_infinity(f: RationalFunction) -> Fraction:
    """Residue at infinity: -res_0 of xi^{-2} f(1/xi)."""
    dn = len(f.num) - 1 if f.num else 0
    dd = len(f.den) - 1
    num_rev = tuple(reversed(f.num)) if f.num else ()
    den_rev = tuple(reversed(f.den))
    shift = dd - dn - 2
    if shift >= 0:
        g = RationalFunction(poly_mul(num_rev, tuple([0] * shift + [1])), den_rev)
    else:
        g = RationalFunction(num_rev, poly_mul(den_rev, tuple([0] * (-shift) + [1])))
    return -residue_zero(g)


def residues_both(f: RationalFunction) -> Fraction:
    return residue_zero(f) + residue_infinity(f)


# --- weights and the fan -----------------------------------------------------


@dataclass(frozen=True)
class Weights:
    values: tuple

    def __post_init__(self):
        vals = tuple(int(w) for w in self.values)
        if not vals or any(w <= 0 for w in vals):
            raise ValueError("weights must be positive integers")
        g = 0
        for w in vals:
            g = gcd(g, w)
        if g != 1:
            raise ValueError("weights must be globally coprime")
        object.__setattr__(self, "values", vals)

    @property
    def m(self):
        return len(self.values) - 1


def _as_weights(w) -> Weights:
    return w if isinstance(w, Weights) else Weights(tuple(w))


def wps_fan(w) -> Fan:
    """The complete simplicial fan of a weighted projective space.

    Rays come in the order p_0, p_1, ..., p_m.  For w_0 = 1 this is the
    textbook picture p_0 = (-w_1, ..., -w_m), p_j = e_j; for general w_0 the
    rays are the images of the unit vectors in Z^{m+1} / Z.w.  Weights whose
    construction produces a non-primitive ray (non-well-formed weight
    vectors) are rejected: they describe the same space as a smaller weight
    system.
    """
    w = _as_weights(w)
    m = w.m
    if m == 0:
        raise ValueError("need at least two weights")
    if w.values[0] == 1:
        p0 = tuple(-x for x in w.values[1:])
        rays = [p0] + [
            tuple(int(i == j) for i in range(m)) for j in range(m)
        ]
    else:
        snf = smith_normal_form([list(w.values)])
        right = [list(r) for r in snf.right]
        rays = []
        for i in range(m + 1):
            e = [0] * (m + 1)
            e[i] = 1
            rays.append(tuple(vec_mat(tuple(e), right)[1:]))
    for ray in rays:
        if primitive(ray) != ray:
            raise ValueError("weights are not well-formed; reduce them first")
    cones = tuple(sorted(combinations(range(m + 1), m)))
    return Fan(dim=m, rays=tuple(rays), maximal_cones=cones)


# --- residue evaluations -----------------------------------------------------


def _base_integrand(w: Weights, s) -> RationalFunction:
    """x^{-1} * prod_j x^{-w_j s_j} / (1 - x^{w_j}) as one rational function."""
    shift = -1 - sum(wj * sj for wj, sj in zip(w.values, s, strict=True))
    f = RationalFunction.x_power(shift)
    for wj in w.values:
        den = [Fraction(1)] + [Fraction(0)] * (wj - 1) + [Fraction(-1)]
        f = f / RationalFunction.from_poly(den)
    return f


def wps_lattice_count(w, s) -> int:
    """Number of q with <p_j, q> >= -s_j for all rays of the weighted fan."""
    w = _as_weights(w)
    val = residue_zero(_base_integrand(w, tuple(s)))
    if val.denominator != 1:
        raise ConsistencyError("lattice count residue is not an integer")
    return int(val)


def wps_hilbert(w, s) -> int:
    """H(s) on the weighted projective fan via residues at 0 and infinity."""
    w = _as_weights(w)
    val = residues_both(_base_integrand(w, tuple(s)))
    if val.denominator != 1:
        raise ConsistencyError("Hilbert residue is not an integer")
    return int(val)


def _series_mul(a, b, order):
    out = [RF_ZERO] * (order + 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            if y.is_zero():
                continue
            out[i + j] = out[i + j] + x * y
    return out


def _one_minus_x_pow(e: int) -> RationalFunction:
    return RF_ONE - RationalFunction.x_power(e)


def wps_chi(w, degrees, p: int, kind: str) -> int:
    """Euler characteristic of a form sheaf on a weighted complete intersection.

    Expands the generating integrand as a power series in y with univariate
    rational-function coefficients, takes the y^p slice, and applies the
    residues at 0 and infinity in x.  `kind` selects alternating ("alt"),
    symmetric ("sym") or unconstrained tensor ("tensor") powers.
    """
    w = _as_weights(w)
    degrees = [int(d) for d in degrees]
    if any(d <= 0 for d in degrees):
        raise ValueError("degrees must be positive")
    if p < 0:
        raise ValueError("negative form degree")

    weight_pows = [RationalFunction.x_power(wj) for wj in w.values]
    degree_pows = [RationalFunction.x_power(d) for d in degrees]

    # scalar-in-x prefactor shared by all three kinds
    base = RationalFunction.x_power(-1)
    for wj in w.values:
        base = base / _one_minus_x_pow(wj)

    series = [RF_ZERO] * (p + 1)
    series[0] = RF_ONE

    if kind == "alt":
        # 1/(1+y) * prod_j (1 + y x^{w_j}) * prod_i (1 - x^{d_i})/(1 + y x^{d_i})
        inv = [RationalFunction.const((-1) ** a) for a in range(p + 1)]
        series = _series_mul(series, inv, p)
        for xp in weight_pows:
            series = _series_mul(series, [RF_ONE, xp], p)
        for d, xp in zip(degrees, degree_pows):
            base = base * _one_minus_x_pow(d)
            geom = [(RationalFunction.const((-1) ** a) * _rf_pow(xp, a)) for a in range(p + 1)]
            series = _series_mul(series, geom, p)
    elif kind == "sym":
        # prod_i (1-x^{d_i})(1-y x^{d_i}) * (1-y) / prod_j (1-y x^{w_j})
        series = _series_mul(series, [RF_ONE, RationalFunction.const(-1)], p)
        for d, xp in zip(degrees, degree_pows):
            base = base * _one_minus_x_pow(d)
            series = _series_mul(series, [RF_ONE, RF_ZERO - xp], p)
        for xp in weight_pows:
            geom = [_rf_pow(xp, a) for a in range(p + 1)]
            series = _series_mul(series, geom, p)
    elif kind == "tensor":
        # prod_i (1-x^{d_i}) / (1 - y(sum_j x^{w_j} - sum_i x^{d_i} - 1))
        for d in degrees:
            base = base * _one_minus_x_pow(d)
        lin = RationalFunction.const(-1)
        for xp in weight_pows:
            lin = lin + xp
        for xp in degree_pows:
            lin = lin - xp
        series = [_rf_pow(lin, a) for a in range(p + 1)]
    else:
        raise ValueError(f"unknown kind {kind!r}")

    slice_p = series[p] * base
    val = residues_both(slice_p)
    if val.denominator != 1:
        raise ConsistencyError("form-sheaf residue is not an integer")
    return int(val)


def _rf_pow(f: RationalFunction, a: int) -> RationalFunction:
    out = RF_ONE
    for _ in range(a):
        out = out * f
    return out


def wps_hodge(w, degrees) -> EPQTable:
    """Hodge diamond of a quasi-smooth weighted complete intersection.

    Off the anti-diagonal p+q = n the numbers are Kronecker deltas; the
    anti-diagonal entries follow from the signed Euler numbers of the
    alternating form sheaves.  Entries are checked for nonnegativity and
    symmetry before returning.
    """
    w = _as_weights(w)
    degrees = [int(d) for d in degrees]
    n = w.m - len(degrees)
    if n < 0:
        raise ValueError("more equations than the dimension allows")
    h = [[1 if (p == q and p + q != n) else 0 for q in range(n + 1)] for p in range(n + 1)]
    for p in range(n + 1):
        ep = (-1) ** p * wps_chi(w, degrees, p, "alt")
        off = 1 if 2 * p != n else 0
        h[p][n - p] = (-1) ** n * (ep - off)
    for p in range(n + 1):
        for q in range(n + 1):
            if h[p][q] < 0:
                raise ConsistencyError(f"negative Hodge number at {(p, q)}")
            if h[p][q] != h[q][p]:
                raise ConsistencyError("Hodge table is not symmetric")
    return EPQTable(tuple(tuple(row) for row in h), "hodge")
