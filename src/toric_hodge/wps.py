"""Weighted projective spaces: residue formulas and Lefschetz diamonds.

Every integrand over weights w_0..w_m has the same denominator
prod_j (1 - x^{w_j}) and is stored as its numerator alone, a sparse integer
Laurent polynomial {exponent: coefficient}.  At the origin

    1 / prod_j (1 - x^{w_j}) = sum_{n >= 0} c(n) x^n,

where the denumerant c(n) counts the k >= 0 with sum_j k_j w_j = n, so both
residues of L(x) / prod_j (1 - x^{w_j}) are integer sums of c (with c(n) = 0
for n < 0) and no division is ever needed:

    res_0   =  sum_e L[e] c(-1 - e)
    res_inf = -(-1)^(m+1) sum_e L[e] c(e + 1 - sum_j w_j)

For coprime weights the Hilbert function of the corresponding fan has this
residue form: counting q with <p_j, q> >= -s_j amounts to the coefficient of
1/x in x^(-1 - sum_j w_j s_j) / prod_j (1 - x^{w_j}), which is
c(sum_j w_j s_j), and H(s) is the sum of the residues at 0 and at infinity.
The same substitution x_j -> x^{w_j} turns the form-sheaf series into a
power series in y whose coefficients are Laurent numerators over the same
denominator; `wps_chi` applies both residues to its y^p slice to get the
alternating / symmetric / tensor Euler characteristics, and `wps_chi_all`
expands once modulo y^(pmax+1) and applies them to every slice.

For a quasi-smooth complete intersection of dimension n in a weighted
projective space, rational cohomology below the middle degree agrees with
the ambient space, so h^{pq} = delta_{pq} off the anti-diagonal p+q = n and
the anti-diagonal is recovered from the Euler numbers e^p = (-1)^p chi of
the p-form sheaves, all from one series (`wps_hodge`).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate, combinations, repeat
from math import gcd

from .errors import ConsistencyError
from .fans import Fan
from .hodge_tables import EPQTable
from .lattice import primitive, row_lattice

# --- Laurent numerators over prod_j (1 - x^{w_j}) ------------------------------


def _mul(a: dict, b: dict) -> dict:
    """Product of two Laurent polynomials {exponent: coefficient}."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _pair_with_denumerants(num: dict, weights, index) -> int:
    """sum_e num[e] * c(index(e)), where c(n) = 0 for n < 0."""
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive integers")
    at = {e: index(e) for e in num}
    c = [1] + [0] * max(at.values(), default=0)
    for w in weights:
        for n in range(w, len(c)):
            c[n] += c[n - w]
    return sum(num[e] * c[n] for e, n in at.items() if n >= 0)


def residue_zero(num: dict, weights) -> int:
    """Coefficient of 1/x at the origin of num(x) / prod_j (1 - x^{w_j})."""
    return _pair_with_denumerants(num, weights, lambda e: -1 - e)


def residue_infinity(num: dict, weights) -> int:
    """Residue at infinity of num(x) / prod_j (1 - x^{w_j})."""
    shift = 1 - sum(weights)
    sign = (-1) ** (len(weights) + 1)
    return sign * _pair_with_denumerants(num, weights, lambda e: e + shift)


# --- weights and the fan -----------------------------------------------------


class Weights(namedtuple("Weights", "values")):
    __slots__ = ()

    def __new__(cls, values):
        values = tuple(values)
        # type, not isinstance, to refuse bool
        if not values or not all(type(w) is int and w > 0 for w in values):
            raise ValueError("weights must be positive integers")
        if gcd(*values) != 1:
            raise ValueError("weights must be globally coprime")
        return super().__new__(cls, values)

    @property
    def m(self):
        return len(self.values) - 1


def _as_weights(w) -> Weights:
    return w if isinstance(w, Weights) else Weights(w)


def wps_fan(w) -> Fan:
    """The complete simplicial fan of a weighted projective space.

    Rays come in the order p_0, p_1, ..., p_m: p_j is the image of the
    unit vector e_j in Z^{m+1} / Z.w, read in the kernel basis of w that
    `row_lattice` gives, so sum_j w_j p_j = 0.  For w_0 = 1 this is the
    textbook picture p_0 = (-w_1, ..., -w_m), p_j = e_j.  Weights whose
    construction produces a non-primitive ray (non-well-formed weight
    vectors) are rejected: they describe the same space as a smaller weight
    system.
    """
    w = _as_weights(w)
    m = w.m
    if m == 0:
        raise ValueError("need at least two weights")
    rays = list(zip(*row_lattice([w.values], m + 1).kernel))
    for ray in rays:
        if primitive(ray) != ray:
            raise ValueError("weights are not well-formed; reduce them first")
    cones = tuple(sorted(combinations(range(m + 1), m)))
    return Fan(dim=m, rays=tuple(rays), maximal_cones=cones)


# --- residue evaluations -----------------------------------------------------


def _residue_sum(num: dict, w: Weights) -> int:
    return residue_zero(num, w.values) + residue_infinity(num, w.values)


def _twist(w: Weights, s) -> dict:
    """Numerator x^(-1 - sum_j w_j s_j) of the lattice-count integrand."""
    return {-1 - sum(wj * sj for wj, sj in zip(w.values, s, strict=True)): 1}


def wps_lattice_count(w, s) -> int:
    """Number of q with <p_j, q> >= -s_j for all rays of the weighted fan.

    This is the denumerant c(sum_j w_j s_j).
    """
    w = _as_weights(w)
    return residue_zero(_twist(w, tuple(s)), w.values)


def wps_hilbert(w, s) -> int:
    """H(s) on the weighted projective fan via residues at 0 and infinity."""
    w = _as_weights(w)
    return _residue_sum(_twist(w, tuple(s)), w)


def _series_mul(a, b, order):
    """Product of two y-series of Laurent numerators, truncated after y^order."""
    out = [{} for _ in range(order + 1)]
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            acc = out[i + j]
            for e, c in _mul(x, y).items():
                acc[e] = acc.get(e, 0) + c
    return out


# Form degrees above this fail fast: alt took 2.3 s at p = 200 on P^4[2,3],
# and 2.4 s at p = 100 and 15.5 s at p = 200 on P(1,2,3,5,7,11)[29,17].
MAX_WPS_DEGREE = 100


def _chis(w, degrees, kind: str, pmax: int, first: int) -> list:
    """Both residues of the y^first .. y^pmax slices of one expansion
    modulo y^(pmax+1), each times x^(-1) prod_i (1 - x^{d_i})."""
    w = _as_weights(w)
    degrees = list(degrees)
    if not all(type(d) is int for d in degrees):  # type, not isinstance, to refuse bool
        raise ValueError("degrees must be integers")
    if any(d <= 0 for d in degrees):
        raise ValueError("degrees must be positive")
    if pmax < 0:
        raise ValueError("negative form degree")
    if pmax > MAX_WPS_DEGREE:
        raise ValueError(f"form degree {pmax}; the supported maximum is {MAX_WPS_DEGREE}")

    one = {0: 1}
    if kind == "alt":
        # 1/(1+y) * prod_j (1 + y x^{w_j}) * prod_i 1/(1 + y x^{d_i})
        factors = [[{0: (-1) ** a} for a in range(pmax + 1)]]
        factors += [[one, {wj: 1}] for wj in w.values]
        factors += [[{a * d: (-1) ** a} for a in range(pmax + 1)] for d in degrees]
    elif kind == "sym":
        # (1-y) * prod_i (1 - y x^{d_i}) * prod_j 1/(1 - y x^{w_j})
        factors = [[one, {0: -1}]]
        factors += [[one, {d: -1}] for d in degrees]
        factors += [[{a * wj: 1} for a in range(pmax + 1)] for wj in w.values]
    elif kind == "tensor":
        # 1/(1 - y lin), lin = sum_j x^{w_j} - sum_i x^{d_i} - 1
        lin = Counter(w.values)
        lin.subtract(degrees)
        lin[0] -= 1
        factors = [list(accumulate(repeat(lin, pmax), _mul, initial=one))]
    else:
        raise ValueError(f"unknown kind {kind!r}")

    series = [one]
    for factor in factors:
        series = _series_mul(series, factor, pmax)
    num = {-1: 1}  # x^(-1) * prod_i (1 - x^{d_i})
    for d in degrees:
        num = _mul(num, {0: 1, d: -1})
    return [_residue_sum(_mul(piece, num), w) for piece in series[first:]]


def wps_chi(w, degrees, p: int, kind: str) -> int:
    """Euler characteristic of a form sheaf on a weighted complete intersection.

    Expands the generating integrand as a power series in y whose
    coefficients are Laurent numerators over prod_j (1 - x^{w_j}), takes the
    y^p slice, multiplies it by x^(-1) prod_i (1 - x^{d_i}) and applies the
    residues at 0 and infinity in x.  `kind` selects alternating ("alt"),
    symmetric ("sym") or unconstrained tensor ("tensor") powers.
    """
    return _chis(w, degrees, kind, p, p)[0]


def wps_chi_all(w, degrees, kind: str, pmax: int) -> list:
    """`wps_chi` for p = 0 .. pmax, from one expansion modulo y^(pmax+1)."""
    return _chis(w, degrees, kind, pmax, 0)


def wps_hodge(w, degrees) -> EPQTable:
    """Hodge diamond of a quasi-smooth weighted complete intersection.

    Off the anti-diagonal p+q = n the numbers are Kronecker deltas; the
    anti-diagonal entries follow from the signed Euler numbers of the
    alternating form sheaves.  Entries are checked for nonnegativity and
    symmetry before returning.
    """
    w = _as_weights(w)
    degrees = tuple(degrees)
    n = w.m - len(degrees)
    if n < 0:
        raise ValueError("more equations than the dimension allows")
    h = [[1 if (p == q and p + q != n) else 0 for q in range(n + 1)] for p in range(n + 1)]
    for p, chi in enumerate(wps_chi_all(w, degrees, "alt", n)):
        ep = (-1) ** p * chi
        off = 1 if 2 * p != n else 0
        h[p][n - p] = (-1) ** n * (ep - off)
    for p in range(n + 1):
        for q in range(n + 1):
            if h[p][q] < 0:
                raise ConsistencyError(f"negative Hodge number at {(p, q)}")
            if h[p][q] != h[q][p]:
                raise ConsistencyError("Hodge table is not symmetric")
    return EPQTable(tuple(tuple(row) for row in h), "hodge")
