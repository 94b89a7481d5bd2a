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
denominator.  It is kept as the list of its slices y^0..y^pmax, starting
from x^(-1) prod_i (1 - x^{d_i}) in slice 0, and each factor 1 + y q(x) or
1 / (1 - y q(x)) is applied in place: slice k gains q times slice k-1, for
k = pmax..1 when multiplying and k = 1..pmax when dividing.  `wps_chi`
applies both residues to its y^p slice to get the alternating / symmetric /
tensor Euler characteristics, and `wps_chi_all` to every slice, all from
one table c(0..N).

For a quasi-smooth complete intersection of dimension n in a weighted
projective space, rational cohomology below the middle degree agrees with
the ambient space, so h^{pq} = delta_{pq} off the anti-diagonal p+q = n and
the anti-diagonal is recovered from the Euler numbers e^p = (-1)^p chi of
the p-form sheaves, all from one series (`wps_hodge`).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations
from math import gcd

from .errors import ConsistencyError
from .fans import Fan
from .hodge_tables import EPQTable
from .lattice import row_lattice

# --- Laurent numerators over prod_j (1 - x^{w_j}) ------------------------------


def _denumerants(weights, top: int) -> list:
    """The table c(0..top) of the denumerants of the weights."""
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive integers")
    c = [1] + [0] * top
    for w in weights:
        for n in range(w, top + 1):
            c[n] += c[n - w]
    return c


def _at_zero(num: dict, c: list) -> int:
    return sum(a * c[-1 - e] for e, a in num.items() if e < 0)


def _at_infinity(num: dict, weights, c: list) -> int:
    shift = 1 - sum(weights)
    sign = (-1) ** (len(weights) + 1)
    return sign * sum(a * c[e + shift] for e, a in num.items() if e + shift >= 0)


def residue_zero(num: dict, weights) -> int:
    """Coefficient of 1/x at the origin of num(x) / prod_j (1 - x^{w_j})."""
    return _at_zero(num, _denumerants(weights, -1 - min(num, default=0)))


def residue_infinity(num: dict, weights) -> int:
    """Residue at infinity of num(x) / prod_j (1 - x^{w_j})."""
    top = max(num, default=0) + 1 - sum(weights)
    return _at_infinity(num, weights, _denumerants(weights, top))


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
        # well formed: every m of the m+1 weights are coprime
        if any(gcd(*values[:j], *values[j + 1 :]) > 1 for j in range(len(values))):
            raise ValueError("weights are not well-formed; reduce them first")
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
    textbook picture p_0 = (-w_1, ..., -w_m), p_j = e_j.  `Weights` refuses
    weights that are not well formed, so every ray is primitive.
    """
    w = _as_weights(w)
    m = w.m
    if m == 0:
        raise ValueError("need at least two weights")
    rays = list(zip(*row_lattice([w.values], m + 1).kernel))
    cones = tuple(sorted(combinations(range(m + 1), m)))
    return Fan(dim=m, rays=tuple(rays), maximal_cones=cones)


# --- residue evaluations -----------------------------------------------------


def _residue_sum(num: dict, w: Weights, c: list) -> int:
    """Both residues of num over prod_j (1 - x^{w_j}), read off the table c."""
    return _at_zero(num, c) + _at_infinity(num, w.values, c)


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
    num = _twist(w, tuple(s))
    return residue_zero(num, w.values) + residue_infinity(num, w.values)


# Form degrees above this fail fast.  On P(1,2,3,5,7,11)[29,17], alt takes 0.06 s
# and tensor 0.26 s at p = 100, 0.22 s and 1.1 s at p = 200 (Python 3.11, 2 cores).
MAX_WPS_DEGREE = 100


def _chis(w, degrees, kind: str, pmax: int, first: int) -> list:
    """Both residues of the y^first .. y^pmax slices of one expansion
    modulo y^(pmax+1), all read off one table of denumerants."""
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

    if kind == "alt":
        # 1/(1+y) * prod_j (1 + y x^{w_j}) * prod_i 1/(1 + y x^{d_i})
        steps = [({0: -1}, True)] + [({wj: 1}, False) for wj in w.values]
        steps += [({d: -1}, True) for d in degrees]
    elif kind == "sym":
        # (1-y) * prod_i (1 - y x^{d_i}) * prod_j 1/(1 - y x^{w_j})
        steps = [({0: -1}, False)] + [({d: -1}, False) for d in degrees]
        steps += [({wj: 1}, True) for wj in w.values]
    elif kind == "tensor":
        # 1/(1 - y lin), lin = sum_j x^{w_j} - sum_i x^{d_i} - 1
        lin = Counter(w.values)
        lin.subtract(degrees)
        lin[0] -= 1
        steps = [({e: c for e, c in lin.items() if c}, True)]
    else:
        raise ValueError(f"unknown kind {kind!r}")

    num = {-1: 1}  # x^(-1) * prod_i (1 - x^{d_i}), free of y: slice 0
    for d in degrees:
        for e, a in list(num.items()):
            num[e + d] = num.get(e + d, 0) - a
    series = [num] + [{} for _ in range(pmax)]
    for q, divide in steps:
        # slice k gains q times slice k-1: the old slice to multiply by
        # 1 + y q (k runs down), the new one to divide by 1 - y q (k runs up)
        for k in range(1, pmax + 1) if divide else range(pmax, 0, -1):
            acc = series[k]
            for e, c in q.items():
                for f, a in series[k - 1].items():
                    acc[e + f] = acc.get(e + f, 0) + c * a
    pieces = series[first:]
    lo = min(min(piece, default=0) for piece in pieces)
    hi = max(max(piece, default=0) for piece in pieces)
    table = _denumerants(w.values, max(-1 - lo, hi + 1 - sum(w.values)))
    return [_residue_sum(piece, w, table) for piece in pieces]


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
                raise ConsistencyError("nonnegativity", f"negative Hodge number at {(p, q)}")
            if h[p][q] != h[q][p]:
                raise ConsistencyError("symmetry", "Hodge table is not symmetric")
    return EPQTable(tuple(tuple(row) for row in h), "hodge")
