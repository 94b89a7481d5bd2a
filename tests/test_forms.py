"""Series factorizations and form-sheaf Euler characteristics."""

import pytest

from toric_hodge import forms, hilbert
from toric_hodge.fans import degrees_of, Fan
from toric_hodge.forms import (
    _factors,
    chi_all,
    chi_alt,
    chi_alt_hilbert,
    chi_sym,
    chi_tensor,
    y_truncated_expand,
)
from toric_hodge.hilbert import HilbertContext, build_context, chi_structure_sheaf, h_of_s

from helpers import (
    fan_octahedron,
    fan_p1,
    fan_p1p1,
    fan_p2,
    fan_p3,
    forms_fixture_corpus,
    simplex_support,
)
from oracles import chi_forms_by_exponents


def _x0_yp_coefficient(ctx, expanded, p):
    """x^0 y^p coefficient of P(x) times an expansion: its y^p terms against H."""
    return sum(
        c * h_of_s(ctx, tuple(-x for x in e)) for (e, j), c in expanded.items() if j == p
    )


def test_expand_single_binomial():
    # 1 + y x_1
    out = y_truncated_expand([{((0, 0), 0): 1, ((1, 0), 1): 1}], 1, 2)
    assert out == {((0, 0), 0): 1, ((1, 0), 1): 1}
    assert y_truncated_expand([{((0, 0), 0): 1, ((1, 0), 1): 1}], 0, 2) == {
        ((0, 0), 0): 1
    }


def test_expand_geometric_series():
    # 1 / (1 + y x^2), written out to y^3 and truncated at y^2
    geometric = {((2 * j,), j): (-1) ** j for j in range(4)}
    out = y_truncated_expand([geometric], 2, 1)
    assert out == {((0,), 0): 1, ((2,), 1): -1, ((4,), 2): 1}


def test_expand_cancellation():
    # (1 - y)^{-1} (1 - y) = 1
    inverse = {((0,), j): 1 for j in range(6)}
    out = y_truncated_expand([inverse, {((0,), 0): 1, ((0,), 1): -1}], 5, 1)
    assert out == {((0,), 0): 1}


@pytest.mark.parametrize("exponent", [(1,), (1, 0, 0)])
def test_expand_rejects_exponents_of_another_length(exponent):
    # a short or long exponent in any factor, even one the truncation drops
    factors = [{((0, 0), 0): 1}, {((1, 0), 0): 1, (exponent, 2): 1}]
    with pytest.raises(ValueError, match="length 2"):
        y_truncated_expand(factors, 1, 2)
    with pytest.raises(ValueError, match="length 2"):
        y_truncated_expand(iter(factors[::-1]), 1, 2)


def test_coeff_empty_factorization():
    ctx = build_context(fan_p2())
    assert y_truncated_expand([], 0, ctx.r) == {((0, 0, 0), 0): 1}
    assert _x0_yp_coefficient(ctx, y_truncated_expand([], 0, ctx.r), 0) == 1


def test_coeff_cubic_structure_sheaf():
    fan = fan_p2()
    ctx = build_context(fan)
    degs = degrees_of(fan, [simplex_support(2, 3)])
    (row,) = degs.rows
    expanded = y_truncated_expand([{((0, 0, 0), 0): 1, (row, 0): -1}], 0, ctx.r)
    assert _x0_yp_coefficient(ctx, expanded, 0) == 0
    assert chi_all(ctx, degs, "alt", 0) == [0]


def test_coeff_cotangent_line():
    ctx = build_context(fan_p1())
    factors = [
        {((0, 0), 0): 1, ((1, 0), 1): 1},
        {((0, 0), 0): 1, ((0, 1), 1): 1},
        {((0, 0), j): (-1) ** j for j in range(2)},  # (1 + y)^(1 - 2)
    ]
    assert _x0_yp_coefficient(ctx, y_truncated_expand(factors, 1, ctx.r), 1) == -1
    # `_factors` writes the same factors with class keys as exponents
    in_classes = [{(ctx.class_key(e), j): c for (e, j), c in f.items()} for f in factors]
    dim = len(ctx.class_key((0, 0)))
    assert y_truncated_expand(in_classes, 1, dim, ctx.reduce_class) == (
        y_truncated_expand(_factors(ctx, [], "alt", 1), 1, dim, ctx.reduce_class)
    )
    assert chi_all(ctx, [], "alt", 1)[1] == -1


# --- chi_alt -----------------------------------------------------------------


def test_chi_alt_classical_values():
    fan = fan_p2()
    ctx = build_context(fan)
    degs = degrees_of(fan, [simplex_support(2, 3)])
    assert chi_alt(ctx, degs, 1) == 0  # genus-one curve

    fan3 = fan_p3()
    ctx3 = build_context(fan3)
    degs3 = degrees_of(fan3, [simplex_support(3, 2)])
    assert [chi_alt(ctx3, degs3, p) for p in range(3)] == [1, -2, 1]

    assert chi_alt(ctx, [], 0) == 1


def test_chi_alt_requires_simplicial():
    ctx = build_context(fan_octahedron())
    with pytest.raises(ValueError, match="simplicial"):
        chi_alt(ctx, [], 1)


def test_dual_path_equality_on_corpus():
    for name, fan, supports in forms_fixture_corpus():
        ctx = build_context(fan)
        degs = degrees_of(fan, supports) if supports else []
        n = fan.dim - len(supports)
        for p in range(n + 2):
            assert chi_alt(ctx, degs, p) == chi_alt_hilbert(ctx, degs, p), (name, p)


# --- chi_sym / chi_tensor ----------------------------------------------------


def test_chi_sym_p0_is_structure_sheaf():
    fan = fan_p2()
    ctx = build_context(fan)
    degs = degrees_of(fan, [simplex_support(2, 3)])
    assert chi_sym(ctx, degs, 0) == chi_structure_sheaf(ctx, degs)


def test_chi_sym_square_on_line():
    # the square of the cotangent sheaf of the line is O(-4)
    ctx = build_context(fan_p1())
    assert chi_sym(ctx, [], 2) == -3


def test_form_type_identities_on_corpus():
    for name, fan, supports in forms_fixture_corpus():
        ctx = build_context(fan)
        degs = degrees_of(fan, supports) if supports else []
        a0 = chi_alt(ctx, degs, 0)
        assert a0 == chi_sym(ctx, degs, 0) == chi_tensor(ctx, degs, 0), name
        assert a0 == chi_structure_sheaf(ctx, degs), name
        a1 = chi_alt(ctx, degs, 1)
        assert chi_sym(ctx, degs, 1) == a1 == chi_tensor(ctx, degs, 1), name
        assert chi_tensor(ctx, degs, 2) == chi_alt(ctx, degs, 2) + chi_sym(
            ctx, degs, 2
        ), name


def test_euler_sum_counts_maximal_cones():
    for fan in (fan_p1(), fan_p2(), fan_p3(), fan_p1p1()):
        ctx = build_context(fan)
        total = sum((-1) ** p * chi_alt(ctx, [], p) for p in range(fan.dim + 1))
        assert total == len(fan.maximal_cones)


def test_chi_alt_vanishes_above_dimension():
    for name, fan, supports in forms_fixture_corpus():
        if not supports:
            continue
        ctx = build_context(fan)
        degs = degrees_of(fan, supports)
        n = fan.dim - len(supports)
        for p in range(n + 1, fan.dim + 1):
            assert chi_alt(ctx, degs, p) == 0, (name, p)


# --- chi_all: one expansion for every p ---------------------------------------

KINDS = ("alt", "sym", "tensor")


@pytest.mark.parametrize("kind", KINDS)
def test_expansion_truncates_consistently(kind):
    for name, fan, supports in forms_fixture_corpus():
        ctx = build_context(fan)
        degs = degrees_of(fan, supports) if supports else []
        n = fan.dim
        factors = _factors(ctx, degs, kind, n)
        dim = len(ctx.class_key((0,) * ctx.r))
        full = y_truncated_expand(factors, n, dim, ctx.reduce_class)
        for p in range(n + 1):
            low = {key: c for key, c in full.items() if key[1] <= p}
            truncated = y_truncated_expand(factors, p, dim, ctx.reduce_class)
            assert low == truncated, (name, p)


# the index-3 fan of tests/test_hilbert.py: its rays span an index-3
# sublattice of Z^2, so Cl = Z + Z/3
INDEX_3 = Fan(2, ((2, -1), (-1, 2), (-1, -1)), ((0, 1), (0, 2), (1, 2)))


@pytest.mark.parametrize("kind", KINDS)
def test_class_coordinates_match_the_series_in_exponents(kind, monkeypatch):
    # `chi_all` reaches H through `hilbert.h_of_classes`, which evaluates each
    # class it needs, coset samples included, by `hilbert._h_of_key`
    seen = []
    evaluate = hilbert._h_of_key
    monkeypatch.setattr(hilbert, "_h_of_key", lambda c, key: seen.append(key) or evaluate(c, key))
    cases = [(name, fan, degrees_of(fan, supports) if supports else [])
             for name, fan, supports in forms_fixture_corpus()]
    cases += [("index3_k0", INDEX_3, []), ("index3_torsion_row", INDEX_3, [(1, 0, 0)]),
              ("index3_conic", INDEX_3, degrees_of(INDEX_3, [simplex_support(2, 2)]))]
    for name, fan, degs in cases:
        ctx = build_context(fan)
        seen.clear()
        values = chi_all(ctx, degs, kind, 12)
        # sums of keys are reduced again, so each class is evaluated at most once
        assert seen and len(seen) == len(set(seen)) == len(ctx._h_memo), name
        assert all(ctx.class_key(ctx.class_divisor(key)) == key for key in seen), name
        fresh = build_context(fan)
        expected = chi_forms_by_exponents(
            ctx.r, fan.dim, degs, kind, 12, lambda s: h_of_s(fresh, s)
        )
        assert values == expected, name


@pytest.mark.parametrize("kind", KINDS)
def test_chi_all_keys_each_ray_and_degree_row_once(kind, monkeypatch):
    # the series and H work on class keys from start to end: `class_key` runs
    # on the r unit vectors, the k degree rows, the zero vector twice and
    # the anticanonical class, however many classes H is taken at
    calls, asked = [], []
    key, classes = HilbertContext.class_key, forms.h_of_classes
    monkeypatch.setattr(HilbertContext, "class_key", lambda c, s: calls.append(s) or key(c, s))
    monkeypatch.setattr(forms, "h_of_classes", lambda c, k: asked.append(len(k)) or classes(c, k))
    total = 0
    for name, fan, supports in forms_fixture_corpus():
        degs = degrees_of(fan, supports) if supports else []
        ctx = build_context(fan)
        calls.clear()
        chi_all(ctx, degs, kind, 8)
        assert len(calls) == ctx.r + len(degs) + 3, name
        total += len(calls)
    assert sum(asked) > 3 * total  # the classes outnumber the calls


def test_chi_all_checks_its_input():
    ctx = build_context(fan_octahedron())
    with pytest.raises(ValueError, match="simplicial"):
        chi_all(ctx, [], "alt", 1)
    ctx = build_context(fan_p2())
    with pytest.raises(ValueError, match="negative"):
        chi_all(ctx, [], "sym", -1)
    with pytest.raises(ValueError, match="number of rays"):
        chi_all(ctx, [(1, 2)], "tensor", 1)
    with pytest.raises(ValueError, match="unknown form kind"):
        chi_all(ctx, [], "wedge", 1)


def test_zero_degree_row_cancels_everything():
    # the support {0} has the zero degree row, so its factor 1 - x^0 is 0
    fan = fan_p2()
    ctx = build_context(fan)
    degs = degrees_of(fan, [((0, 0),)])
    assert [tuple(row) for row in degs.rows] == [(0, 0, 0)]
    for kind in KINDS:
        assert chi_all(ctx, degs, kind, 2) == [0, 0, 0], kind
    for p in range(3):
        assert chi_alt(ctx, degs, p) == chi_alt_hilbert(ctx, degs, p) == 0, p
