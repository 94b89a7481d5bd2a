"""Inclusion-exclusion Hilbert function."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_hodge.errors import ConsistencyError
from toric_hodge.fans import degrees_of
from toric_hodge.hilbert import (
    build_context,
    chi_structure_sheaf,
    h_of_s,
    n_I_s,
)

from helpers import (
    fan_p1,
    fan_p1p1,
    fan_p2,
    fan_p3,
    fan_wps_1423,
    polygon_fan,
    simplex_support,
)
from oracles import brute_h, chi_table_by_definition


def _chi_dict(ctx):
    chis = {mask: ctx.chi_of_mask(mask) for mask in range(1 << ctx.r)}
    return {mask: chi for mask, chi in chis.items() if chi}


def test_p1_chi_sets():
    ctx = build_context(fan_p1())
    assert _chi_dict(ctx) == {0b11: 1, 0b00: -1}


@pytest.mark.parametrize("fan_fn,m", [(fan_p2, 2), (fan_p3, 3), (fan_wps_1423, 3)])
def test_weighted_pattern_full_and_empty_only(fan_fn, m):
    # fans combinatorially equivalent to a simplex boundary: chi is 1 on the
    # full ray set, (-1)^m on the empty set, 0 elsewhere
    ctx = build_context(fan_fn())
    full = (1 << ctx.r) - 1
    assert _chi_dict(ctx) == {full: 1, 0: (-1) ** m}


def test_aggregated_coefficients_match_definition():
    for fan in (fan_p1(), fan_p2(), fan_p1p1(), fan_wps_1423()):
        ctx = build_context(fan)
        assert _chi_dict(ctx) == chi_table_by_definition(fan)


def test_p1p1_h_at_zero():
    ctx = build_context(fan_p1p1())
    assert h_of_s(ctx, (0, 0, 0, 0)) == 1


def test_n_I_s_examples():
    ctx = build_context(fan_p1())
    assert n_I_s(ctx, (0, 1), (0, 0)) == 1
    assert n_I_s(ctx, (), (-2, 0)) == 1
    ctx2 = build_context(fan_p2())
    assert n_I_s(ctx2, (0, 1, 2), (1, 1, 1)) == 10


def test_n_I_s_unbounded_region_with_zero_chi():
    ctx = build_context(fan_p2())
    with pytest.raises(ValueError):
        n_I_s(ctx, (0,), (0, 0, 0))


def test_n_I_s_unbounded_with_nonzero_chi_is_fatal():
    # cannot happen on an honest complete fan; force the bookkeeping to claim
    # a nonzero coefficient on an unbounded region and check the guard
    from toric_hodge.hilbert import HilbertContext

    fan = fan_p2()
    forged = HilbertContext(fan, {0b001: 1})
    with pytest.raises(ConsistencyError):
        n_I_s(forged, (0,), (0, 0, 0))


def test_h_of_s_walk_keeps_the_unbounded_region_guard():
    # the same forged coefficient makes chi nonzero on the unbounded region
    # of the ray set {0}; the cell walk must reach it and raise
    from toric_hodge.hilbert import HilbertContext

    forged = HilbertContext(fan_p2(), {0b001: 1})
    with pytest.raises(ConsistencyError):
        h_of_s(forged, (0, 0, 0))


def test_h_line_bundle_degrees_on_p1():
    ctx = build_context(fan_p1())
    for d in range(-5, 6):
        assert h_of_s(ctx, (d, 0)) == d + 1


def test_h_p2_dilated_simplex():
    ctx = build_context(fan_p2())
    assert h_of_s(ctx, (1, 1, 1)) == 10


def test_h_against_brute_oracle():
    rng = random.Random(23)
    for fan in (fan_p1(), fan_p2(), fan_p1p1(), fan_wps_1423()):
        ctx = build_context(fan)
        for _ in range(25):
            s = tuple(rng.randint(-4, 4) for _ in range(ctx.r))
            assert h_of_s(ctx, s) == brute_h(fan, s)


@st.composite
def polygon_and_s(draw):
    r = draw(st.sampled_from((4, 6, 8, 10)))
    s = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    return r, tuple(s)


@given(polygon_and_s())
@settings(max_examples=30, deadline=None)
def test_cell_walk_matches_brute_and_the_mask_sum(case):
    r, s = case
    fan = polygon_fan(r)
    ctx = build_context(fan)
    h = h_of_s(ctx, s)
    assert h == brute_h(fan, s)
    chis = ((mask, ctx.chi_of_mask(mask)) for mask in range(1 << r))
    assert h == sum(chi * n_I_s(ctx, mask, s) for mask, chi in chis if chi)


def test_serre_duality_at_the_ray_cap():
    fan = polygon_fan(24)
    ctx = build_context(fan)
    assert ctx.r == 24
    rng = random.Random(24)
    for s in ((2,) * 24, tuple(rng.randint(-2, 2) for _ in range(24))):
        dual = tuple(-1 - x for x in s)
        assert h_of_s(ctx, s) == h_of_s(ctx, dual)


def test_h_zero_is_one_on_corpus():
    for fan in (fan_p1(), fan_p2(), fan_p3(), fan_p1p1(), fan_wps_1423()):
        ctx = build_context(fan)
        assert h_of_s(ctx, tuple([0] * ctx.r)) == 1


def test_h_invariant_under_ray_permutation():
    rng = random.Random(3)
    fan = fan_p1p1()
    ctx = build_context(fan)
    perm = list(range(len(fan.rays)))
    rng.shuffle(perm)
    from toric_hodge.fans import Fan

    rays = tuple(fan.rays[perm[i]] for i in range(len(perm)))
    cones = tuple(
        tuple(sorted(perm.index(i) for i in cone)) for cone in fan.maximal_cones
    )
    permuted = Fan(fan.dim, rays, cones)
    pctx = build_context(permuted)
    for _ in range(10):
        s = tuple(rng.randint(-3, 3) for _ in range(ctx.r))
        ps = tuple(s[perm[i]] for i in range(len(perm)))
        assert h_of_s(ctx, s) == h_of_s(pctx, ps)


def test_chi_structure_sheaf_no_equations():
    for fan in (fan_p2(), fan_p3(), fan_p1p1()):
        ctx = build_context(fan)
        assert chi_structure_sheaf(ctx, []) == 1
        assert chi_structure_sheaf(ctx, []) == h_of_s(ctx, tuple([0] * ctx.r))


def test_chi_structure_sheaf_plane_cubic():
    fan = fan_p2()
    ctx = build_context(fan)
    degs = degrees_of(fan, [simplex_support(2, 3)])
    assert chi_structure_sheaf(ctx, degs) == 0


def test_chi_structure_sheaf_quadric():
    fan = fan_p3()
    ctx = build_context(fan)
    degs = degrees_of(fan, [simplex_support(3, 2)])
    assert chi_structure_sheaf(ctx, degs) == 1


def test_build_context_requires_complete():
    from toric_hodge.fans import Fan

    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError, match="complete"):
        build_context(fan)


def test_build_context_ray_cap():
    fan = polygon_fan(26)
    from toric_hodge.fans import validate, is_complete

    assert validate(fan).ok and is_complete(fan)
    with pytest.raises(ValueError, match="maximum"):
        build_context(fan)
