"""Residues, weighted fans, weighted diamonds."""

import os
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_hodge.fans import is_complete, is_regular, is_simplicial, validate
from toric_hodge.forms import chi_alt, chi_sym, chi_tensor
from toric_hodge.hilbert import build_context, h_of_s
from toric_hodge.wps import (
    MAX_WPS_DEGREE,
    Weights,
    residue_infinity,
    residue_zero,
    wps_chi,
    wps_chi_all,
    wps_fan,
    wps_hilbert,
    wps_hodge,
    wps_lattice_count,
)

from helpers import fan_p1, fan_p2, fan_wps_1423
from oracles import (
    brute_count,
    chi_y_projective_ci,
    hodge_from_chi_y_lefschetz,
    laurent_residues,
    maximal_minors_gcd,
    wps_series_by_factors,
)


# --- residues over prod_j (1 - x^{w_j}) ---------------------------------------
# an integrand is its numerator {exponent: coefficient} over that denominator


def test_residue_simple_pole():
    assert residue_zero({-1: 1}, ()) == 1


def test_residue_higher_pole_hand_series():
    # x^{-3} / (1-x)^2: the geometric-square series sum (a+1) x^a puts
    # coefficient 3 on x^2, which lands on 1/x after the shift
    assert residue_zero({-3: 1}, (1, 1)) == 3


def test_residue_of_polynomial_is_zero():
    assert residue_zero({0: 5, 1: 1, 2: 7}, ()) == 0


def test_residue_infinity_simple():
    assert residue_infinity({-1: 1}, ()) == -1


def test_residue_infinity_geometric():
    assert residue_infinity({0: 1}, (1,)) == 1


def test_residue_sum_vanishes_for_laurent_polynomials():
    rng = random.Random(17)
    for _ in range(40):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        shift = rng.randint(0, 4)
        num = {i - shift: c for i, c in enumerate(coeffs)}
        assert residue_zero(num, ()) + residue_infinity(num, ()) == 0


def test_residues_reject_nonpositive_weights():
    for weights in [(0,), (1, -2)]:
        with pytest.raises(ValueError):
            residue_zero({-1: 1}, weights)
        with pytest.raises(ValueError):
            residue_infinity({-1: 1}, weights)


@given(
    st.dictionaries(st.integers(-8, 8), st.integers(-5, 5), max_size=5),
    st.lists(st.integers(1, 5), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_residues_match_sympy_laurent_series(num, weights):
    expected = laurent_residues(num, weights)
    assert (residue_zero(num, weights), residue_infinity(num, weights)) == expected


# --- fans ---------------------------------------------------------------------


def test_wps_fan_line_and_plane():
    assert sorted(wps_fan((1, 1)).rays) == [(-1,), (1,)]
    assert sorted(wps_fan((1, 1, 1)).rays) == [(-1, -1), (0, 1), (1, 0)]
    # w_0 = 1 gives the textbook rays p_0 = (-w_1, ..., -w_m), p_j = e_j
    assert wps_fan((1, 1, 2)).rays == ((-1, -2), (1, 0), (0, 1))


def test_wps_fan_example_weights():
    fan = wps_fan((1, 4, 2, 3))
    assert fan.rays == fan_wps_1423().rays
    assert validate(fan).ok
    assert is_complete(fan) and is_simplicial(fan) and not is_regular(fan)


def test_wps_fan_general_leading_weight():
    for w in [(2, 3, 5), (3, 1, 1), (5, 2, 3), (2, 3, 7, 11)]:
        fan = wps_fan(w)
        assert validate(fan).ok
        assert is_complete(fan) and is_simplicial(fan)
        # the rays satisfy the one relation sum_j w_j p_j = 0 and generate Z^m
        assert all(sum(wj * p[i] for wj, p in zip(w, fan.rays)) == 0 for i in range(fan.dim))
        assert maximal_minors_gcd(fan.rays) == 1
        ctx = build_context(fan)
        for s in [(0, 0, 0), (1, 0, 0), (0, 2, 1), (-1, 3, 0)]:
            s = (s + (0,) * len(w))[: len(w)]
            assert wps_hilbert(w, s) == h_of_s(ctx, s)


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights((2, 4))
    with pytest.raises(ValueError):
        Weights((0, 1))
    with pytest.raises(ValueError):
        wps_fan((1, 2, 2))  # not well-formed
    # well formed: every m of the m+1 weights are coprime; gcd(2, 2) = gcd(3, 3) > 1
    for w in [(1, 2, 2), (3, 4, 3)]:
        with pytest.raises(ValueError, match="not well-formed"):
            Weights(w)
        for call in [
            lambda: wps_chi(w, [8], 1, "alt"),
            lambda: wps_chi_all(w, [8], "sym", 1),
            lambda: wps_hodge(w, [8]),
            lambda: wps_hilbert(w, (0, 0, 0)),
            lambda: wps_lattice_count(w, (0, 0, 0)),
        ]:
            with pytest.raises(ValueError, match="not well-formed"):
                call()


# --- counting -----------------------------------------------------------------


def test_count_interval():
    assert wps_lattice_count((1, 1), (1, 1)) == 3


def test_count_empty():
    assert wps_lattice_count((1, 1), (-2, -2)) == 0


def test_count_dilated_simplex():
    assert wps_lattice_count((1, 1, 1), (1, 1, 1)) == 10


def test_count_matches_direct_enumeration():
    rng = random.Random(9)
    for w in [(1, 1), (1, 1, 1), (1, 4, 2, 3), (2, 3, 5)]:
        fan = wps_fan(w)
        for _ in range(15):
            s = tuple(rng.randint(-3, 3) for _ in range(len(w)))
            cons = tuple((ray, -s[j]) for j, ray in enumerate(fan.rays))
            assert wps_lattice_count(w, s) == brute_count(cons, fan.dim)


def test_hilbert_residues_vs_fan_path():
    rng = random.Random(31)
    for w in [(1, 1), (1, 1, 1), (1, 4, 2, 3)]:
        ctx = build_context(wps_fan(w))
        for _ in range(20):
            s = tuple(rng.randint(-4, 4) for _ in range(len(w)))
            assert wps_hilbert(w, s) == h_of_s(ctx, s)


def test_hilbert_line_bundles():
    for d in range(-5, 6):
        assert wps_hilbert((1, 1), (d, 0)) == d + 1
    assert wps_hilbert((1, 4, 2, 3), (0, 0, 0, 0)) == 1


# --- form sheaves -------------------------------------------------------------


def test_wps_chi_classical():
    assert wps_chi((1, 1, 1), [3], 0, "alt") == 0
    assert wps_chi((1, 1), [2], 0, "alt") == 2
    assert wps_chi((1, 1, 1, 1, 1), [5], 1, "alt") == 100


def test_wps_chi_matches_chi_y_oracle():
    for m, degs in [(2, [3]), (3, [2]), (4, [2, 3]), (4, [5])]:
        w = tuple([1] * (m + 1))
        oracle = chi_y_projective_ci(m, degs)
        for p, expected in enumerate(oracle):
            assert wps_chi(w, degs, p, "alt") == expected


def test_wps_chi_vs_fan_path_spot():
    w = (1, 4, 2, 3)
    fan = wps_fan(w)
    ctx = build_context(fan)
    row = (12, 0, 0, 0)
    degs = (row,)
    for kind, fn in [("alt", chi_alt), ("sym", chi_sym), ("tensor", chi_tensor)]:
        for p in range(3):
            assert wps_chi(w, [12], p, kind) == fn(ctx, degs, p), (kind, p)


def test_wps_hodge_classical_diamonds():
    assert wps_hodge((1, 1, 1), [3]).entries == ((1, 1), (1, 1))
    assert wps_hodge((1, 1, 1, 1), [2]).entries == ((1, 0, 0), (0, 2, 0), (0, 0, 1))
    k3 = wps_hodge((1, 1, 1, 1, 1), [2, 3])
    assert k3.entries == ((1, 0, 1), (0, 20, 0), (1, 0, 1))
    quintic = wps_hodge((1, 1, 1, 1, 1), [5])
    assert quintic.get(1, 1) == 1 and quintic.get(2, 1) == 101
    assert quintic.get(3, 0) == 1 and quintic.get(0, 3) == 1


def test_wps_hodge_matches_lefschetz_oracle():
    for m, degs in [(2, [3]), (3, [2]), (4, [2, 3]), (4, [5]), (3, [4])]:
        w = tuple([1] * (m + 1))
        table = wps_hodge(w, degs)
        oracle = hodge_from_chi_y_lefschetz(m, degs)
        assert [list(r) for r in table.entries] == oracle


def test_wps_hodge_symmetries():
    for w, degs in [((1, 1, 1, 1, 1), [5]), ((1, 4, 2, 3), [12]), ((1, 1, 1, 1), [])]:
        t = wps_hodge(w, degs)
        n = t.bound
        for p in range(n + 1):
            for q in range(n + 1):
                assert t.get(p, q) == t.get(q, p)
                assert t.get(p, q) == t.get(n - p, n - q)
                assert t.get(p, q) >= 0


def test_wps_hodge_rejects_overdetermined():
    with pytest.raises(ValueError):
        wps_hodge((1, 1), [2, 2])


@pytest.mark.parametrize("kind", ["alt", "sym", "tensor"])
@pytest.mark.parametrize(
    "w,degrees", [((1, 1, 1), [3]), ((1, 4, 2, 3), [12]), ((1, 1, 2), []), ((1, 1, 1, 1, 1), [2, 3])]
)
def test_wps_chi_all_matches_wps_chi_at_every_p(w, degrees, kind):
    pmax = 6
    assert wps_chi_all(w, degrees, kind, pmax) == [
        wps_chi(w, degrees, p, kind) for p in range(pmax + 1)
    ]


def _well_formed(w):
    return all(gcd(*w[:j], *w[j + 1 :]) == 1 for j in range(len(w)))


@given(
    st.lists(st.integers(1, 7), min_size=2, max_size=6).filter(_well_formed),
    st.lists(st.integers(1, 12), max_size=2),
    st.sampled_from(["alt", "sym", "tensor"]),
    st.integers(0, 15),
)
@settings(max_examples=200, deadline=None)
def test_wps_chi_all_matches_the_written_out_series(weights, degrees, kind, pmax):
    slices = wps_series_by_factors(weights, degrees, kind, pmax)
    expected = [residue_zero(s, weights) + residue_infinity(s, weights) for s in slices]
    assert wps_chi_all(weights, degrees, kind, pmax) == expected


def test_wps_euler_expands_once_for_all_p(monkeypatch):
    import toric_hodge.wps as wps_mod
    from toric_hodge import cli

    quintic = os.path.join(os.path.dirname(__file__), "data", "quintic.json")
    residues = []
    residue_sum = wps_mod._residue_sum
    monkeypatch.setattr(wps_mod, "_residue_sum", lambda *a: residues.append(a) or residue_sum(*a))
    for kind in ("alt", "sym", "tensor"):
        residues.clear()
        assert cli.main(["wps", "euler", "--kind", kind, "-p", "2", quintic]) == 0
        assert len(residues) == 1
        residues.clear()
        assert cli.main(["wps", "euler", "--kind", kind, quintic]) == 0
        assert len(residues) == 3 + 1  # n = 3: p = 0 .. 3


def test_wps_chi_all_checks_its_degree():
    with pytest.raises(ValueError, match="negative form degree"):
        wps_chi_all((1, 1, 1), [3], "alt", -1)
    with pytest.raises(ValueError, match="supported maximum"):
        wps_chi_all((1, 1, 1), [3], "alt", MAX_WPS_DEGREE + 1)
    with pytest.raises(ValueError, match="unknown kind"):
        wps_chi_all((1, 1, 1), [3], "wedge", 2)
