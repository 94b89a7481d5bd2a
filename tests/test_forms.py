"""Series factorizations and form-sheaf Euler characteristics."""

import pytest

from toric_hodge.fans import degrees_of, Fan
from toric_hodge.forms import (
    GeometricInverse,
    ScalarBinomialPower,
    XMonomialBinomial,
    YMonomialBinomial,
    _factors,
    chi_all,
    chi_alt,
    chi_alt_hilbert,
    chi_sym,
    chi_tensor,
    coeff_x0_yp,
    y_truncated_expand,
)
from toric_hodge.hilbert import build_context, chi_structure_sheaf

from helpers import (
    fan_octahedron,
    fan_p1,
    fan_p1p1,
    fan_p2,
    fan_p3,
    forms_fixture_corpus,
    simplex_support,
)


def test_expand_single_binomial():
    out = y_truncated_expand([YMonomialBinomial((1, 0))], 1, 2)
    assert out == {((0, 0), 0): 1, ((1, 0), 1): 1}


def test_expand_geometric_series():
    out = y_truncated_expand([GeometricInverse((2,))], 2, 1)
    assert out == {((0,), 0): 1, ((2,), 1): -1, ((4,), 2): 1}


def test_expand_cancellation():
    out = y_truncated_expand(
        [ScalarBinomialPower(-1, -1), ScalarBinomialPower(1, -1)], 5, 1
    )
    assert out == {((0,), 0): 1}


def test_coeff_empty_factorization():
    ctx = build_context(fan_p2())
    assert coeff_x0_yp(ctx, [], 0) == 1


def test_coeff_cubic_structure_sheaf():
    fan = fan_p2()
    ctx = build_context(fan)
    (row,) = degrees_of(fan, [simplex_support(2, 3)]).rows
    assert coeff_x0_yp(ctx, [XMonomialBinomial(row)], 0) == 0


def test_coeff_cotangent_line():
    ctx = build_context(fan_p1())
    factors = [
        YMonomialBinomial((1, 0)),
        YMonomialBinomial((0, 1)),
        ScalarBinomialPower(1 - 2, 1),
    ]
    assert coeff_x0_yp(ctx, factors, 1) == -1


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

KIND_FUNCS = {"alt": chi_alt, "sym": chi_sym, "tensor": chi_tensor}


@pytest.mark.parametrize("kind", sorted(KIND_FUNCS))
def test_chi_all_matches_single_p(kind):
    for name, fan, supports in forms_fixture_corpus():
        ctx = build_context(fan)
        degs = degrees_of(fan, supports) if supports else []
        values = chi_all(ctx, degs, kind, fan.dim)
        assert values == [KIND_FUNCS[kind](ctx, degs, p) for p in range(fan.dim + 1)], name


@pytest.mark.parametrize("kind", sorted(KIND_FUNCS))
def test_expansion_truncates_consistently(kind):
    for name, fan, supports in forms_fixture_corpus():
        ctx = build_context(fan)
        degs = degrees_of(fan, supports) if supports else []
        n = fan.dim
        factors = _factors(ctx, degs, kind, n)
        full = y_truncated_expand(factors, n, ctx.r)
        for p in range(n + 1):
            low = {key: c for key, c in full.items() if key[1] <= p}
            assert low == y_truncated_expand(factors, p, ctx.r), (name, p)


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
