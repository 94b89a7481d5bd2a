"""Series factorizations and form-sheaf Euler characteristics."""

import pytest

from toric_hodge import forms, hilbert
from toric_hodge.fans import degrees_of, Fan
from toric_hodge.forms import (
    _apply,
    _series,
    chi_all,
    chi_alt,
    chi_alt_hilbert,
    chi_sym,
    chi_tensor,
)
from toric_hodge.hilbert import HilbertContext, build_context, chi_structure_sheaf, h_of_s

from helpers import (
    fan_octahedron,
    fan_p1,
    fan_p1p1,
    fan_p2,
    fan_p3,
    forms_fixture_corpus,
    polygon_fan,
    simplex_support,
)
from oracles import chi_forms_by_exponents, forms_series_by_factors

KINDS = ("alt", "sym", "tensor")

# the index-3 fan of tests/test_hilbert.py: its rays span an index-3
# sublattice of Z^2, so Cl = Z + Z/3
INDEX_3 = Fan(2, ((2, -1), (-1, 2), (-1, -1)), ((0, 1), (0, 2), (1, 2)))


def _x0_yp_coefficient(ctx, series, p):
    """x^0 y^p coefficient of P(x) times a series: its y^p slice against H."""
    return sum(
        c * h_of_s(ctx, tuple(-x for x in ctx.class_divisor(a))) for a, c in series[p].items()
    )


def test_expand_single_binomial():
    # 1 + y x_1, modulo y^2 and modulo y
    series = [{(0, 0): 1}, {}]
    _apply(series, {(1, 0): 1}, False, tuple, 2)
    assert series == [{(0, 0): 1}, {(1, 0): 1}]
    series = [{(0, 0): 1}]
    _apply(series, {(1, 0): 1}, False, tuple, 2)
    assert series == [{(0, 0): 1}]


def test_expand_geometric_series():
    # 1 / (1 + y x^2) modulo y^3
    series = [{(0,): 1}, {}, {}]
    _apply(series, {(2,): -1}, True, tuple, 1)
    assert series == [{(0,): 1}, {(2,): -1}, {(4,): 1}]
    # 1 / (1 - y x_1) in class keys: the sums j x_1 are reduced to the keys
    # of (j, 0, 0), whose torsion part runs through Z/3
    ctx = build_context(INDEX_3)
    keys = [ctx.class_key((j, 0, 0)) for j in range(7)]
    series = [{keys[0]: 1}] + [{} for _ in range(6)]
    _apply(series, {keys[1]: 1}, True, ctx.reduce_class, len(keys[0]))
    assert series == [{key: 1} for key in keys]
    assert len(set(keys)) == 7


def test_expand_cancellation():
    # (1 - y)^{-1} (1 - y) = 1, with no zero coefficients left behind
    series = [{(0,): 1}] + [{} for _ in range(5)]
    _apply(series, {(0,): 1}, True, tuple, 1)
    assert series == [{(0,): 1} for _ in range(6)]
    _apply(series, {(0,): -1}, False, tuple, 1)
    assert series == [{(0,): 1}] + [{} for _ in range(5)]


def test_coeff_empty_factorization():
    ctx = build_context(fan_p2())
    zero = ctx.class_key((0, 0, 0))
    for kind in KINDS:
        assert _series(ctx, [], kind, 0) == [{zero: 1}] == forms_series_by_factors(
            ctx, [], kind, 0
        ), kind
    assert _x0_yp_coefficient(ctx, [{zero: 1}], 0) == 1


def test_coeff_cubic_structure_sheaf():
    fan = fan_p2()
    ctx = build_context(fan)
    degs = degrees_of(fan, [simplex_support(2, 3)])
    (row,) = degs
    series = _series(ctx, degs, "alt", 0)
    assert series == [{ctx.class_key((0, 0, 0)): 1, ctx.class_key(row): -1}]
    assert series == forms_series_by_factors(ctx, degs, "alt", 0)
    assert _x0_yp_coefficient(ctx, series, 0) == 0
    assert chi_all(ctx, degs, "alt", 0) == [0]


def test_coeff_cotangent_line():
    # (1 + y x_1)(1 + y x_2) / (1 + y) on P^1, where x_1 and x_2 share a class
    ctx = build_context(fan_p1())
    zero, point = ctx.class_key((0, 0)), ctx.class_key((1, 0))
    series = _series(ctx, [], "alt", 1)
    assert series == [{zero: 1}, {point: 2, zero: -1}]
    assert series == forms_series_by_factors(ctx, [], "alt", 1)
    assert _x0_yp_coefficient(ctx, series, 1) == -1
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


# --- chi_all: one series for every p ------------------------------------------


def _class_cases():
    """(name, fan, degrees): the forms corpus and the torsion fan INDEX_3."""
    cases = [(name, fan, degrees_of(fan, supports) if supports else [])
             for name, fan, supports in forms_fixture_corpus()]
    return cases + [
        ("index3_k0", INDEX_3, []),
        ("index3_torsion_row", INDEX_3, [(1, 0, 0)]),
        ("index3_conic", INDEX_3, degrees_of(INDEX_3, [simplex_support(2, 2)])),
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_expansion_truncates_consistently(kind):
    # every truncation of the series equals the written-out product of the
    # factors, keyed term by term, up to p = dim + 2
    octagon = polygon_fan(8)
    cases = _class_cases() + [
        ("polygon8_k0", octagon, []),
        ("polygon8_row", octagon, [(1, 1, 0, 2, 0, 0, 1, 0)]),
    ]
    for name, fan, degs in cases:
        ctx = build_context(fan)
        pmax = fan.dim + 2
        expected = forms_series_by_factors(ctx, degs, kind, pmax)
        for p in range(pmax + 1):
            assert _series(ctx, degs, kind, p) == expected[: p + 1], (name, p)


@pytest.mark.parametrize("kind", KINDS)
def test_class_coordinates_match_the_series_in_exponents(kind, monkeypatch):
    # `chi_all` reaches H through `hilbert.h_of_classes`, which evaluates each
    # class it needs, coset samples included, by `hilbert._h_of_key`
    seen = []
    evaluate = hilbert._h_of_key
    monkeypatch.setattr(hilbert, "_h_of_key", lambda c, key: seen.append(key) or evaluate(c, key))
    for name, fan, degs in _class_cases():
        ctx = build_context(fan)
        seen.clear()
        values = chi_all(ctx, degs, kind, 12)
        # sums of keys are reduced again, so each class is evaluated at most
        # once; on a surface the memo also holds the nef classes that H at a
        # class with neither s nor -1 - s nef is interpolated from
        assert seen and len(seen) == len(set(seen)) and set(seen) <= ctx._h_memo.keys(), name
        assert fan.dim == 2 or len(seen) == len(ctx._h_memo), name
        assert all(ctx.class_key(ctx.class_divisor(key)) == key for key in seen), name
        fresh = build_context(fan)
        expected = chi_forms_by_exponents(
            ctx.r, fan.dim, degs, kind, 12, lambda s: h_of_s(fresh, s)
        )
        assert values == expected, name


@pytest.mark.parametrize("kind", KINDS)
def test_chi_all_keys_each_ray_and_degree_row_once(kind, monkeypatch):
    # the series and H work on class keys from start to end: `class_key` runs
    # on the r unit vectors, the k degree rows, the zero vector, the
    # anticanonical class and, on a surface that needs it, the ample class,
    # however many classes H is taken at
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
        ample = vars(ctx).get("ample_key") is not None
        assert len(calls) == ctx.r + len(degs) + 2 + ample, name
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
    assert [tuple(row) for row in degs] == [(0, 0, 0)]
    for kind in KINDS:
        assert chi_all(ctx, degs, kind, 2) == [0, 0, 0], kind
    for p in range(3):
        assert chi_alt(ctx, degs, p) == chi_alt_hilbert(ctx, degs, p) == 0, p
