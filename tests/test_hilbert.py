"""Inclusion-exclusion Hilbert function."""

import random
from functools import lru_cache
from itertools import product
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_hodge import forms, lattice
from toric_hodge.errors import ConsistencyError
from toric_hodge.fans import Fan, degrees_of, normal_fan, simplicial_refinement
from toric_hodge.hilbert import (
    HilbertContext,
    build_context,
    chi_structure_sheaf,
    h_of_s,
)
from toric_hodge.lattice import det_int, minkowski_support

from helpers import (
    fan_octahedron,
    fan_p1,
    fan_p1p1,
    fan_p1p1p1,
    fan_p2,
    fan_p2p1,
    fan_p3,
    fan_projective,
    fan_wps_1423,
    polygon_fan,
    simplex_support,
)
from oracles import brute_h, chi_table_by_definition, in_ray_image, recession_is_trivial


def _chi_dict(ctx):
    # chi_I is the sum of the c_S over the S contained in I
    chis = {
        mask: sum(c for S, c in ctx.c_table.items() if S & mask == S)
        for mask in range(1 << ctx.r)
    }
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


def test_h_of_s_walk_keeps_the_unbounded_region_guard():
    # cannot happen on an honest complete fan: a forged coefficient makes chi
    # nonzero on the unbounded region of the ray set {0}; the cell walk must
    # reach it and raise
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


def test_h_large_s_counts_in_closed_form():
    # dilated simplices d*Delta: the last two coordinates of every region are
    # counted by floor sums, so d = 10**9 on P^2 (about 5 * 10**17 points) and
    # d = 10**4 on P^3 (one outer sweep of 10**4 values) stay cheap
    assert h_of_s(build_context(fan_p2()), (10**9, 0, 0)) == comb(10**9 + 2, 2)
    assert h_of_s(build_context(fan_p3()), (10**4, 0, 0, 0)) == comb(10**4 + 3, 3)


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
def test_cell_walk_matches_brute(case):
    r, s = case
    fan = polygon_fan(r)
    assert h_of_s(build_context(fan), s) == brute_h(fan, s)


# On a simplicial fan H(s) is a quasi-polynomial of degree <= n in s whose
# period divides L, the lcm of |det| over the maximal cones: along s + i L e_j
# it is a polynomial in i, and its (n+1)-th difference vanishes.
QUASI_FANS = (
    (fan_p2(), 1),
    (fan_p2p1(), 1),
    (fan_p1p1p1(), 1),
    (polygon_fan(8), 3),
    (polygon_fan(12), 5),
    (fan_wps_1423(), 12),
)


@lru_cache(maxsize=None)
def _quasi_context(idx):
    return build_context(QUASI_FANS[idx][0])


@st.composite
def quasi_case(draw):
    idx = draw(st.integers(0, len(QUASI_FANS) - 1))
    r = len(QUASI_FANS[idx][0].rays)
    s = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    return idx, tuple(s), draw(st.integers(0, r - 1))


@given(quasi_case())
@settings(max_examples=60, deadline=None)
def test_h_is_a_quasi_polynomial_on_simplicial_fans(case):
    idx, s, j = case
    fan, period = QUASI_FANS[idx]
    dets = [abs(det_int([fan.rays[i] for i in cone])) for cone in fan.maximal_cones]
    assert lcm(*dets) == period
    ctx = _quasi_context(idx)
    n = fan.dim
    values = []
    for i in range(n + 2):
        shifted = list(s)
        shifted[j] += i * period
        values.append(h_of_s(ctx, tuple(shifted)))
    assert sum((-1) ** (n + 1 - i) * comb(n + 1, i) * v for i, v in enumerate(values)) == 0


# a 14-ray, 24-cone 3-D fan: the pulled normal fan of an 11-point support
REFINED_14 = simplicial_refinement(normal_fan(minkowski_support([[
    (0, 2, 3), (0, 4, 2), (1, 2, 1), (2, 0, 0), (2, 3, 2), (2, 3, 4), (2, 4, 1),
    (3, 0, 2), (4, 1, 4), (4, 3, 3), (4, 4, 1),
]]), 3))


def test_cell_walk_never_re_eliminates():
    # every node extends its parent's cascade by one row (`extend_cascade`,
    # the package's only Fourier-Motzkin elimination)
    polygon = polygon_fan(12)
    assert (len(REFINED_14.rays), len(REFINED_14.maximal_cones)) == (14, 24)
    contexts = [build_context(polygon), build_context(REFINED_14)]
    rng = random.Random(12)
    for ctx in contexts:
        for _ in range(3):
            s = tuple(rng.randint(-3, 3) for _ in range(ctx.r))
            value = h_of_s(ctx, s)
            if ctx.fan is polygon:
                assert value == brute_h(polygon, s)


@st.composite
def folded_systems(draw):
    dim = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(-2, 2)] * dim)
    rows = draw(st.lists(st.tuples(normal, st.integers(-3, 3)), min_size=1, max_size=10))
    return dim, rows


@given(folded_systems())
@settings(max_examples=200, deadline=None)
def test_cascade_boundedness_matches_the_recession_cone(case):
    # the leaf test of the cell walk reads boundedness off the carried
    # cascade; on every nonempty system it agrees with an enumeration of the
    # recession cone's extreme rays
    dim, rows = case
    levels = [{}] * dim
    for normal, bound in rows:
        levels = lattice.extend_cascade(levels, normal, bound)
        if levels is None:
            return
    normals = [n for n, _ in rows]
    assert lattice.cascade_is_bounded(levels) == recession_is_trivial(normals, dim)


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


# Fans for the divisor-class memo: the helper fans (the octahedron is not
# simplicial), a fan whose rays span an index-3 sublattice of Z^2 (Cl =
# Z + Z/3), and one with singular cones whose column reduction has a
# negative pivot.
CLASS_FANS = (
    fan_p1(),
    fan_p2(),
    fan_p3(),
    fan_p1p1(),
    fan_p2p1(),
    fan_wps_1423(),
    fan_octahedron(),
    polygon_fan(6),
    Fan(2, ((2, -1), (-1, 2), (-1, -1)), ((0, 1), (0, 2), (1, 2))),
    Fan(2, ((1, 0), (1, 2), (-1, -1), (-1, -3)), ((0, 1), (0, 3), (1, 2), (2, 3))),
)


@lru_cache(maxsize=None)
def _shared_context(idx):
    return build_context(CLASS_FANS[idx])


@st.composite
def class_case(draw):
    idx = draw(st.integers(0, len(CLASS_FANS) - 1))
    fan = CLASS_FANS[idx]
    r, n = len(fan.rays), fan.dim
    s = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    u = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    delta = draw(st.lists(st.integers(-1, 1), min_size=r, max_size=r))
    return idx, tuple(s), tuple(u), tuple(delta)


@given(class_case())
@settings(max_examples=200, deadline=None)
def test_h_memo_is_keyed_by_divisor_class(case):
    idx, s, u, delta = case
    fan = CLASS_FANS[idx]
    ctx = _shared_context(idx)
    shifted = tuple(
        x + sum(a * b for a, b in zip(ray, u)) for x, ray in zip(s, fan.rays)
    )
    other = tuple(x + d for x, d in zip(shifted, delta))
    # s + P u has the value of s, read from a memo shared across examples
    assert h_of_s(ctx, shifted) == h_of_s(build_context(fan), s)
    assert ctx.class_key(shifted) == ctx.class_key(s)
    # keys agree exactly when the difference lies in P Z^n
    assert (ctx.class_key(other) == ctx.class_key(s)) == in_ray_image(fan.rays, delta)


def test_class_keys_with_a_unit_pivot_between_torsion_pivots():
    # P^T U = [L | 0] has the pivots -3, 1, -7 here (Cl = Z/21), and the last
    # row of L has an entry under the unit pivot: reducing a sum of keys by
    # the torsion rows alone is right only once L is in Hermite form
    rays = ((-3, 1, 0), (-3, 3, 1), (-3, -2, 2))
    ctx = HilbertContext(Fan(3, rays, ((0, 1, 2),)), {})
    box = list(product(range(-2, 3), repeat=3))
    keys = {s: ctx.class_key(s) for s in box}
    assert len(set(keys.values())) == 21
    for s in box[::7]:
        for t in box:
            diff = tuple(x - y for x, y in zip(s, t))
            assert (keys[s] == keys[t]) == in_ray_image(rays, diff)
            total = tuple(x + y for x, y in zip(s, t))
            summed = [x + y for x, y in zip(keys[s], keys[t])]
            assert ctx.reduce_class(summed) == ctx.class_key(total)
            assert ctx.class_key(ctx.class_divisor(keys[t])) == keys[t]


def test_class_memo_walks_each_degree_once(monkeypatch):
    # on P^4 the class of s is sum(s): the series pairs one s per degree
    ctx = build_context(fan_projective(4))
    seen = []
    h = forms.h_of_s
    monkeypatch.setattr(forms, "h_of_s", lambda c, s: seen.append(s) or h(c, s))
    assert forms.chi_all(ctx, [(5, 0, 0, 0, 0)], "tensor", 3) == [0, 100, 600, 2700]
    assert len(seen) == len(ctx._h_memo) == len({sum(s) for s in seen}) == 14
