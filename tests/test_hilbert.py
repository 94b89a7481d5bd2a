"""Inclusion-exclusion Hilbert function."""

import math
import random
from functools import lru_cache
from itertools import combinations, product
from math import comb, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toric_hodge import forms, hilbert, lattice
from toric_hodge.errors import ConsistencyError
from toric_hodge.fans import Fan, degrees_of, is_simplicial, normal_fan, simplicial_refinement
from toric_hodge.hilbert import (
    HilbertContext,
    build_context,
    chi_structure_sheaf,
    h_of_s,
)
from toric_hodge.lattice import det_int, minkowski_support

from helpers import (
    apply_matrix,
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
    unimodular_matrix,
)
from oracles import (
    brute_h,
    chi_table_by_definition,
    in_ray_image,
    is_nef_by_cones,
    recession_is_trivial,
)


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
    # nonzero on unbounded regions; the cell walk must reach one and raise,
    # also when the forged ray is decided in the frontier.  Neither s nor
    # -1 - s is nef here, so the whole walk runs (a nef s trusts the table
    # and follows one branch, as the coset fits of h_of_classes trust it).
    # The fans are 3-D: on a surface such an s is read off nef classes
    forged = HilbertContext(fan_p3(), {0b0001: 1})
    assert forged._depth == 3 and forged.frontier
    assert forged.nef_side((-1, 0, 0, 0)) is None and forged.ample_key is None
    with pytest.raises(ConsistencyError) as info:
        h_of_s(forged, (-1, 0, 0, 0))
    assert info.value.check == "unbounded region"
    # P(1,2,3,5) with its weight-1 ray first: the walk decides rays 1 to 3 in
    # the frontier, and the error names the rays by their bits in the fan
    fan = Fan(3, ((-2, -3, -5), (1, 0, 0), (0, 1, 0), (0, 0, 1)), tuple(combinations(range(4), 3)))
    for table, mask in (({0b0010: 1}, "0b1110"), ({0b0001: 1}, "0b111")):
        forged = HilbertContext(fan, table)
        assert forged._order == [1, 2, 3, 0]
        assert forged.nef_side((2, -1, -1, -1)) is None
        with pytest.raises(ConsistencyError, match=f"ray set {mask}$"):
            h_of_s(forged, (2, -1, -1, -1))


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
        # on a fresh context, so that the dual is walked, not read off the memo
        assert h_of_s(ctx, s) == h_of_s(build_context(fan), dual)


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


def _record_walks(monkeypatch):
    # the H evaluator builds a class's divisor only to walk it
    walked = []
    divisor = HilbertContext.class_divisor
    monkeypatch.setattr(
        HilbertContext, "class_divisor", lambda ctx, key: walked.append(key) or divisor(ctx, key)
    )
    return walked


def test_class_memo_walks_each_degree_once(monkeypatch):
    # on P^4 the class of s is sum(s), and Cl = Z is one coset (L = 1): the
    # series asks for 14 classes, which are read off a fit through the 5
    # samples -5 .. -1.  The anticanonical class is 5, so -4 / -1 and -3 / -2
    # are Serre-dual pairs: -5, -4 and -3 are walked, each once, and -2 and
    # -1 are read off their duals
    ctx = build_context(fan_projective(4))
    walked = _record_walks(monkeypatch)
    assert forms.chi_all(ctx, [(5, 0, 0, 0, 0)], "tensor", 3) == [0, 100, 600, 2700]
    assert sorted(ctx._h_memo) == [(-5,), (-4,), (-3,), (-2,), (-1,)]
    assert sorted(walked) == [(-5,), (-4,), (-3,)]


# The simplicial fans of both lists above.  A key set that asks for more
# classes of one coset than the fit has samples is fitted, so each example
# asks for one to four more than that, all in one coset.
FIT_FANS = tuple(dict.fromkeys(
    [fan for fan in CLASS_FANS if is_simplicial(fan)] + [fan for fan, _ in QUASI_FANS]
))


@st.composite
def coset_steps(draw, fan):
    r, n = len(fan.rays), fan.dim
    f = r - n
    s = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    reach = 4 if f <= 2 else 2
    steps = st.lists(st.integers(-reach, reach), min_size=f, max_size=f).map(tuple)
    size = comb(f + n, n) + 1
    return tuple(s), draw(st.lists(steps, min_size=size, max_size=size + 3, unique=True))


@pytest.mark.parametrize("fan", FIT_FANS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_fitted_h_matches_the_walk(fan, data):
    s, steps = data.draw(coset_steps(fan))
    n, f = fan.dim, len(fan.rays) - fan.dim
    period = lcm(*(abs(det_int([fan.rays[i] for i in cone])) for cone in fan.maximal_cones))
    ctx, fresh = build_context(fan), build_context(fan)
    start = ctx.class_key(s)
    t = len(start) - f
    # the far corners lie outside the sample simplex on both sides
    steps += [(6,) * f, (-6,) * f]
    keys = [start[:t] + tuple(x + period * z for x, z in zip(start[t:], step)) for step in steps]
    fitted = hilbert.h_of_classes(ctx, keys)
    # only the samples were evaluated; on a surface a sample that is not nef
    # adds the three nef classes it is interpolated from
    assert comb(f + n, n) <= len(ctx._h_memo) <= (4 if n == 2 else 1) * comb(f + n, n)
    for key in keys:
        assert fitted[key] == h_of_s(fresh, ctx.class_divisor(key)), key


# The walk starts from a frontier: the states after the rays on which every
# class_divisor vanishes, found once per context.

W11125 = Fan(
    4,
    ((-1, -1, -2, -5), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    tuple(combinations(range(5), 4)),
)
BRUTE_FANS = tuple(dict.fromkeys(CLASS_FANS + tuple(fan for fan, _ in QUASI_FANS)))


@pytest.mark.parametrize("fan", BRUTE_FANS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_frontier_walk_matches_brute(fan, data):
    s = data.draw(st.lists(st.integers(-3, 3), min_size=len(fan.rays), max_size=len(fan.rays)))
    assert h_of_s(build_context(fan), s) == brute_h(fan, s)


@pytest.mark.parametrize("fan,degree", [(fan_projective(4), 5), (W11125, 10)])
def test_walks_pay_only_for_their_own_rays(fan, degree, monkeypatch):
    # every class_divisor vanishes on n rays of these fans: the frontier
    # decides them once, and each walk decides the one ray left
    degrees = [(degree,) + (0,) * fan.dim]
    expected = forms.chi_all(build_context(fan), degrees, "tensor", 3)
    ctx = build_context(fan)
    count = []
    extend = hilbert.extend_cascade
    monkeypatch.setattr(hilbert, "extend_cascade", lambda *a: count.append(0) or extend(*a))
    assert ctx._depth == fan.dim and ctx.frontier
    front = len(count)
    assert front <= 10
    assert forms.chi_all(ctx, degrees, "tensor", 3) == expected
    assert 0 < len(count) - front <= 2 * len(ctx._h_memo)


@pytest.mark.parametrize("fan", FIT_FANS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_h_is_invariant_under_unimodular_coordinates(fan, data):
    # a permutation or shear of the lattice coordinates moves every region
    # onto one with as many points, though it changes the swept order
    s = data.draw(st.lists(st.integers(-3, 3), min_size=len(fan.rays), max_size=len(fan.rays)))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    mat = unimodular_matrix(fan.dim, rng)
    perm = rng.sample(range(fan.dim), fan.dim)
    moved = [mat, [[int(j == perm[i]) for j in range(fan.dim)] for i in range(fan.dim)]]
    value = h_of_s(build_context(fan), s)
    for m in moved:
        rays = tuple(apply_matrix(m, ray) for ray in fan.rays)
        assert h_of_s(build_context(Fan(fan.dim, rays, fan.maximal_cones)), s) == value


def test_weighted_space_sweeps_its_narrow_coordinates():
    # {x : <p_j, x> >= -1} on P(1,1,1,2,5) is x >= -1, x1 + x2 + 2 x3 + 5 x4 <= 1:
    # its widths are 10, 10, 5 and 2, so x4 and x3 are swept and the
    # weight-1 coordinates counted in closed form
    ctx = build_context(W11125)
    assert ctx.period == 10
    assert ctx._coordinate_order() == [3, 2, 0, 1]
    assert ctx._rays == [tuple(W11125.rays[j][i] for i in (3, 2, 0, 1)) for j in ctx._order]
    # H(d e_0) counts the monomials of weighted degree d
    monomials = [1] + [0] * 60
    for w in (1, 1, 1, 2, 5):
        for d in range(w, 61):
            monomials[d] += monomials[d - w]
    assert [h_of_s(ctx, (d, 0, 0, 0, 0)) for d in range(61)] == monomials


# P^3 / (Z/2)^2: each maximal cone has |det| 4, but its rays' dual basis
# has denominators 2, so 2 D is Cartier for every divisor D and the cosets
# of 2 Cl are fitted
TETRA = Fan(
    3, ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)), tuple(combinations(range(4), 3))
)


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=10, deadline=None)
def test_period_is_the_cartier_index(s):
    ctx, fresh = build_context(TETRA), build_context(TETRA)
    assert ctx.period == 2
    assert lcm(*(abs(det_int(TETRA.ray_matrix(c))) for c in TETRA.maximal_cones)) == 4
    start = ctx.class_key(s)
    keys = [start[:-1] + (start[-1] + 2 * z,) for z in range(-6, 7)]
    fitted = hilbert.h_of_classes(ctx, keys)
    assert len(ctx._h_memo) == 4  # the samples of one fit
    for key in keys:
        assert fitted[key] == h_of_s(fresh, ctx.class_divisor(key)), key


# The nef branch: where s or -1 - s is nef, chi is nonzero on one region
# only, and the walk follows one branch (Demazure vanishing and Serre
# duality).  NEF_FANS holds the simplicial CLASS_FANS (the index-3 torsion
# fan and the negative-pivot fan among them), the QUASI_FANS and REFINED_14.
NEF_FANS = FIT_FANS + (REFINED_14,)


def _walk_only(patch):
    # neither the nef branch nor, on a surface, the shift along an ample class
    patch.setattr(HilbertContext, "nef_side", lambda ctx, s: None)
    patch.setattr(HilbertContext, "ample_key", None)


@st.composite
def nef_relatives(draw, fan):
    """An s of one of four kinds: t_j = -min over a few lattice points v of
    <p_j, v>, its Serre dual -1 - t, a translate t + P u, or an
    unconstrained s.  t is nef when the fan refines the normal fan of the
    points' hull; on REFINED_14 it often is not, and is then an ordinary s."""
    n, r = fan.dim, len(fan.rays)
    point = st.tuples(*[st.integers(-2, 2)] * n)
    points = draw(st.lists(point, min_size=1, max_size=4))
    t = [-min(sum(a * b for a, b in zip(ray, v)) for v in points) for ray in fan.rays]
    kind = draw(st.sampled_from(("nef", "dual", "translate", "free")))
    if kind == "dual":
        return [-1 - x for x in t]
    if kind == "translate":
        u = draw(point)
        return [x + sum(a * b for a, b in zip(ray, u)) for x, ray in zip(t, fan.rays)]
    if kind == "free":
        return draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    return t


@pytest.mark.parametrize("fan", NEF_FANS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_nef_branch_equals_the_walk(fan, data):
    s = data.draw(nef_relatives(fan))
    value = h_of_s(build_context(fan), s)
    with pytest.MonkeyPatch.context() as patch:
        _walk_only(patch)
        assert h_of_s(build_context(fan), s) == value


@lru_cache(maxsize=None)
def _nef_context(fan):
    return build_context(fan)


@pytest.mark.parametrize("fan", NEF_FANS)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_nef_side_matches_the_cone_by_cone_criterion(fan, data):
    s = data.draw(nef_relatives(fan))
    nef, dual = is_nef_by_cones(fan, s), is_nef_by_cones(fan, [-1 - x for x in s])
    ctx = _nef_context(fan)
    assert ctx.nef_side(s) == (True if nef else False if dual else None)
    assert ctx.nef_side([-1 - x for x in s]) == (True if dual else False if nef else None)


def _count_extensions(monkeypatch):
    count = []
    extend = hilbert.extend_cascade
    monkeypatch.setattr(hilbert, "extend_cascade", lambda *a: count.append(0) or extend(*a))
    return count


def test_nef_branch_decides_each_ray_once(monkeypatch):
    # a nef s and its dual, each on a context of its own, extend the cascade
    # at most once per ray after the frontier (a walk of every cell of this
    # fan extends it hundreds of times).  On the context of s the dual costs
    # nothing
    fan = polygon_fan(14)
    count = _count_extensions(monkeypatch)
    ctx = build_context(fan)
    nef = [-min(a * x + b * y for x, y in ((0, 0), (2, 1), (-1, 2))) for a, b in fan.rays]
    dual = [-1 - x for x in nef]
    values = []
    for s, side, own in ((nef, True, ctx), (dual, False, build_context(fan))):
        assert own.nef_side(s) is side and own.frontier
        before = len(count)
        values.append(h_of_s(own, s))
        assert 0 < len(count) - before <= ctx.r - ctx._depth
    before = len(count)
    assert h_of_s(ctx, dual) == values[1] and len(count) == before
    assert values[0] == values[1] == sum(  # Serre duality, and the points of P_D
        all(a * x + b * y >= -t for (a, b), t in zip(fan.rays, nef))
        for x in range(-5, 6) for y in range(-5, 6)
    )


@pytest.mark.parametrize("fan", [polygon_fan(12), polygon_fan(14), REFINED_14])
def test_surfaces_shift_instead_of_walking(fan, monkeypatch):
    # a work count, not a timing: on a surface an s with neither s nor
    # -1 - s nef is read off three nef classes, each one branch long, while
    # a 3-D fan still walks the cells of the arrangement
    ctx = build_context(fan)
    assert ctx.frontier
    count = _count_extensions(monkeypatch)
    s = [1, -2, 0, 3, -1, 2, 0, -3, 1, 2, -2, 0, 1, -1][: ctx.r]
    assert ctx.nef_side(s) is None
    value = h_of_s(ctx, s)
    if fan.dim == 2:
        assert len(count) <= (fan.dim + 1) * (ctx.r - ctx._depth)
        with pytest.MonkeyPatch.context() as patch:
            _walk_only(patch)
            assert h_of_s(build_context(fan), s) == value
    else:
        assert len(count) > 50


def test_non_simplicial_fans_keep_the_walk(monkeypatch):
    # the octahedron's fan is not simplicial: even a nef s is walked
    fan = fan_octahedron()
    ctx = build_context(fan)
    assert not ctx.simplicial and ctx.frontier
    count = _count_extensions(monkeypatch)
    for s in ((1,) * 8, (0,) * 8, (-2,) * 8):
        assert ctx.nef_side(s) is None
        before = len(count)
        assert h_of_s(ctx, s) == brute_h(fan, s)
        assert len(count) - before > ctx.r - ctx._depth


# Complete 2-D fans from random primitive rays, their cones spanned by rays
# adjacent in angle (often singular), and two fixed ones: Cl = Z + Z/3, and
# L = 9,009.  On them H at an s with neither s nor -1 - s nef is read off
# three nef classes along `ample_key`
SURFACES = (
    ((2, -1), (-1, 2), (-1, -1)),
    ((3, -1), (1, 2), (-4, 1), (-1, -3), (2, -5)),
)


def _surface(rays):
    rays = sorted(rays, key=lambda p: math.atan2(p[1], p[0]))
    cones = tuple(tuple(sorted((i, (i + 1) % len(rays)))) for i in range(len(rays)))
    return Fan(2, tuple(rays), cones)


def _primitive(p):
    g = math.gcd(*p)
    return (p[0] // g, p[1] // g)


@st.composite
def surfaces(draw):
    fixed = draw(st.sampled_from(SURFACES + (None,) * 4))
    if fixed:
        return _surface(fixed)
    point = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)
    size = draw(st.integers(2, 23))
    rays = set(map(_primitive, draw(st.lists(point, min_size=size, max_size=size))))
    assume(any(a * d != b * c for (a, b), (c, d) in combinations(rays, 2)))
    # rays spanning the plane with a positive relation span it positively
    total = tuple(-sum(x) for x in zip(*rays))
    if any(total):
        rays.add(_primitive(total))
    return _surface(rays)


@given(surfaces(), st.data())
@settings(max_examples=60, deadline=None)
def test_shifted_h_on_random_surfaces(fan, data):
    ctx = build_context(fan)
    r, rays = ctx.r, fan.rays
    a = ctx.class_divisor(ctx.ample_key)
    assert all(sum(c * a[i] for i, c in w) > 0 for w, _ in ctx._walls)
    # the polygon closes: its vertices, one per cone and counter-clockwise,
    # are lattice points (a is Cartier), joined by positive multiples of the
    # rays turned clockwise (a is ample)
    vertices = []
    for i in range(r):
        (p, q), (u, v), b, c = rays[i], rays[(i + 1) % r], a[i], a[(i + 1) % r]
        d, x, y = p * v - q * u, c * q - b * v, b * u - c * p
        assert d > 0 and x % d == y % d == 0
        vertices.append((x // d, y // d))
    for i in range(r):
        (x, y), (u, v), p = vertices[i - 1], vertices[i], rays[i]
        assert (u - x) * p[0] + (v - y) * p[1] == 0 < (u - x) * p[1] - (v - y) * p[0]
    for _ in range(3):
        s = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        value = h_of_s(ctx, s)
        if r <= 8:
            assert value == brute_h(fan, s)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(HilbertContext, "ample_key", None)
            assert h_of_s(build_context(fan), s) == value


# Serre duality, H(-1 - s) = (-1)^n H(s): on a simplicial fan the dual of an
# evaluated class is read off the memo, not walked
DUAL_FANS = FIT_FANS + (REFINED_14, TETRA)


@pytest.mark.parametrize("fan", DUAL_FANS)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_serre_dual_class_is_not_walked_again(fan, data):
    r, n = len(fan.rays), fan.dim
    s = data.draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r))
    dual = [-1 - x for x in s]
    ctx = build_context(fan)
    value = h_of_s(ctx, s)
    walked = h_of_s(build_context(fan), dual)
    assert walked == (-1) ** n * value
    if fan in BRUTE_FANS:
        assert value == brute_h(fan, s) and walked == brute_h(fan, dual)
    with pytest.MonkeyPatch.context() as patch:
        count = _count_extensions(patch)
        assert h_of_s(ctx, dual) == walked and count == []


def test_non_simplicial_fans_walk_the_serre_dual(monkeypatch):
    # on the octahedron's fan H(-1 - s) = (-1)^n H(s) fails, so nothing is shared
    fan = fan_octahedron()
    ctx = build_context(fan)
    assert ctx.frontier
    count = _count_extensions(monkeypatch)
    rng = random.Random(8)
    for _ in range(4):
        s = [rng.randint(-2, 2) for _ in range(ctx.r)]
        dual = [-1 - x for x in s]
        assert h_of_s(ctx, s) == brute_h(fan, s)
        before = len(count)
        assert h_of_s(ctx, dual) == brute_h(fan, dual)
        assert len(count) > before


def test_walk_budget(monkeypatch):
    # a walk past MAX_WALK_EXTENSIONS cascade extensions fails by name and
    # stores nothing; the same s walks to the end under the real cap
    ctx = build_context(REFINED_14)
    s = (1, -2, 0, 3, -1, 2, 0, -3, 1, 2, -2, 0, 1, -1)
    assert ctx.nef_side(s) is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hilbert, "MAX_WALK_EXTENSIONS", 50)
        with pytest.raises(ValueError, match="MAX_WALK_EXTENSIONS = 50"):
            h_of_s(ctx, s)
    assert ctx._h_memo == {}
    count = _count_extensions(monkeypatch)
    assert h_of_s(ctx, s) == h_of_s(build_context(REFINED_14), s)
    assert 50 < len(count) <= hilbert.MAX_WALK_EXTENSIONS
