"""Exact linear algebra and polyhedral geometry."""

import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product
from math import comb, gcd

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toric_hodge import lattice
from toric_hodge.fans import degrees_of, normal_fan
from toric_hodge.lattice import (
    MAX_FM_PAIRS,
    _count_levels,
    _envelope,
    _floor_sum,
    affine_lattice_reduction,
    cascade_is_bounded,
    convex_hull,
    det_int,
    dot,
    extend_cascade,
    independent_rows,
    mat_vec,
    minkowski_support,
    primitive,
    projection_levels,
    rank_of,
    row_lattice,
    vec_add,
    vec_mat,
    vec_sub,
)
from toric_hodge.wps import wps_fan, wps_lattice_count

from helpers import unimodular_matrix
from oracles import (
    _fm_coordinate_bounds,
    brute_box_points,
    brute_count,
    brute_extreme_rays,
    hull_vertices_by_rank,
)


# --- integer elimination ----------------------------------------------------


@st.composite
def integer_matrices(draw):
    """Up to 8 x 6, entries in [-5, 5]; some rows are forced to be dependent
    (a +-1 combination of at most two earlier rows, or zero)."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(range(len(rows))), max_size=2))
            signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=2))
            rows.append([sum(c * rows[i][j] for c, i in zip(signs, picks))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(st.integers(min_value=-5, max_value=5),
                                      min_size=ncols, max_size=ncols)))
    return rows


def _greedy_independent(rows):
    """Keep a row when the sympy rank grows."""
    chosen = []
    for i, row in enumerate(rows):
        if sp.Matrix([rows[j] for j in chosen] + [row]).rank() > len(chosen):
            chosen.append(i)
    return chosen


@given(integer_matrices())
@settings(max_examples=150, deadline=None)
def test_elimination_matches_sympy(rows):
    assert rank_of(rows) == sp.Matrix(rows).rank()
    assert independent_rows(rows) == _greedy_independent(rows)
    k = min(len(rows), len(rows[0]))
    square = [row[:k] for row in rows[:k]]
    assert det_int(square) == sp.Matrix(square).det()


def test_det_int_sign_follows_row_swaps():
    # permutation matrices force a row swap at almost every elimination step
    for perm in permutations(range(4)):
        mat = [[int(j == perm[i]) for j in range(4)] for i in range(4)]
        assert det_int(mat) == sp.Matrix(mat).det()


@given(integer_matrices(), st.lists(st.integers(min_value=-3, max_value=3), max_size=6))
@settings(max_examples=100, deadline=None)
@example(rows=[[2, 4, 0]], mix=[])
def test_row_lattice_coordinates(rows, mix):
    dim = len(rows[0])
    span = row_lattice(rows, dim)
    assert span.rank == sp.Matrix(rows).rank()
    assert len(span.kernel) == dim - span.rank
    assert abs(det_int(span.right)) == 1
    assert [[dot(row, col) for col in zip(*span.right_inverse)] for row in span.right] == [
        [int(i == j) for j in range(dim)] for i in range(dim)
    ]
    # coordinates in a basis of the saturation: a primitive vector of the
    # span keeps coprime coordinates (for rows [[2, 4, 0]], (1, 2, 0) -> (+-1,))
    for row in rows:
        if any(row):
            assert gcd(*span.coord(primitive(row))) == 1
    # coord inverts the first `rank` rows of right^-1, a basis of the saturation
    basis = sp.Matrix([list(r) for r in span.right]).inv().tolist()[: span.rank]
    for row in rows:
        c = span.coord(row)
        assert [sum(c[i] * basis[i][j] for i in range(span.rank)) for j in range(dim)] == row
    for q in span.kernel:
        assert all(dot(row, q) == 0 for row in rows)
    for i, q in enumerate(span.kernel):
        assert span.kernel_coord(q) == tuple(int(i == j) for j in range(len(span.kernel)))
    mix = (mix + [0] * dim)[: len(span.kernel)]
    q = tuple(sum(c * k[j] for c, k in zip(mix, span.kernel)) for j in range(dim))
    assert span.kernel_coord(q) == tuple(mix)


def test_row_lattice_of_no_rows_is_the_whole_lattice():
    span = row_lattice([], 3)
    assert span.rank == 0
    assert span.kernel == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert span.kernel_coord((4, -1, 2)) == (4, -1, 2)


# --- primitive ---------------------------------------------------------------


@pytest.mark.parametrize(
    "vec,expected",
    [((2, 4), (1, 2)), ((-3, 0), (-1, 0)), ((1, 1, 1), (1, 1, 1))],
)
def test_primitive(vec, expected):
    assert primitive(vec) == expected


def test_primitive_zero_vector():
    with pytest.raises(ValueError):
        primitive((0, 0))


# --- convex hull -------------------------------------------------------------


def test_hull_unit_simplex():
    poly = convex_hull([(0, 0), (1, 0), (0, 1)])
    assert poly.dim == 2
    assert len(poly.facets) == 3
    assert poly.vertices == ((0, 0), (0, 1), (1, 0))


def test_hull_collinear_segment():
    poly = convex_hull([(0, 0), (2, 0), (1, 0)])
    assert poly.dim == 1
    assert poly.vertices == ((0, 0), (2, 0))
    assert poly.contains((1, 0)) and not poly.contains((3, 0))
    assert not poly.contains((1, 1))


def _facet_normals_by_vertex_pairs(points):
    """2D oracle: candidate edge normals from all vertex pairs, kept when
    they support the whole point set."""
    normals = set()
    for a, b in combinations(points, 2):
        d = (b[0] - a[0], b[1] - a[1])
        for n in ((d[1], -d[0]), (-d[1], d[0])):
            if n == (0, 0):
                continue
            n = primitive(n)
            bound = min(dot(n, p) for p in points)
            if dot(n, a) == bound and dot(n, b) == bound:
                normals.add((n, bound))
    return normals


def test_hull_square_facets_oracle():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    poly = convex_hull(pts)
    assert poly.dim == 2
    assert len(poly.facets) == 4
    assert set(poly.facets) == _facet_normals_by_vertex_pairs(pts)


def test_hull_single_point():
    poly = convex_hull([(3, -1)])
    assert poly.dim == 0
    assert poly.vertices == ((3, -1),)
    assert poly.contains((3, -1)) and not poly.contains((3, 0))


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_hull_invariants(points):
    poly = convex_hull(points)
    for p in points:
        assert poly.contains(p)
    for n, b in poly.facets:
        assert primitive(n) == n and type(b) is int
    genuine = [(n, b) for n, b in poly.facets]
    for v in poly.vertices:
        tight = [n for n, b in genuine if dot(n, v) == b]
        assert len(tight) >= poly.dim
    # vertex minimality: no vertex is in the hull of the others
    for v in poly.vertices:
        others = [p for p in poly.vertices if p != v]
        if others:
            sub = convex_hull(others)
            assert not sub.contains(v)


@st.composite
def hull_point_sets(draw):
    """Points on a random affine subspace of Z^1 .. Z^4, some of them repeated."""
    dim = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    base = draw(coords)
    directions = draw(st.lists(coords, max_size=dim))
    points = [base]
    for _ in range(draw(st.integers(0, 9))):
        mix = [draw(st.integers(-2, 2)) for _ in directions]
        points.append(tuple(x + sum(c * d[j] for c, d in zip(mix, directions))
                            for j, x in enumerate(base)))
    return points + draw(st.lists(st.sampled_from(points), max_size=3))


@given(hull_point_sets())
@settings(max_examples=200, deadline=None)
@example([(0, 0), (1, 1), (2, 2), (1, 1)])
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0)])
@example([(2, 0, 0, 0), (-2, 0, 0, 0), (0, 2, 0, 0), (0, -2, 0, 0), (0, 0, 2, 0), (0, 0, -2, 0),
          (0, 0, 0, 2), (0, 0, 0, -2), (1, 1, 0, 0)])
@example([(-3, 0), (3, 0), (-2, 0), (2, 0), (0, 1)])
@example([(1, -2, 0)])
def test_hull_vertices_and_facets_match_oracles(points):
    # vertices against the rank test of the tight facet normals; facets of a
    # full-dimensional hull against the enumerated rays of its dual cone.  An
    # edge of the 4-D cross-polytope lies on four facets, so its midpoint is
    # tight on `dim` facets without being a vertex.  The three points of the
    # planar example farthest from its centroid are collinear, so its double
    # description looks past its first rows for a starting simplex
    poly = convex_hull(points)
    assert list(poly.vertices) == hull_vertices_by_rank(points, poly.facets)
    if poly.dim == poly.ambient_dim:
        rays = brute_extreme_rays([p + (1,) for p in points], poly.dim + 1)
        assert sorted((r[:-1], -r[-1]) for r in rays) == list(poly.facets)


def test_hull_reads_vertices_without_ranks(monkeypatch):
    def forbidden(rows):
        raise AssertionError("convex_hull called rank_of")

    monkeypatch.setattr(lattice, "rank_of", forbidden)
    quintic = [p for p in product(range(6), repeat=4) if sum(p) <= 5]
    assert len(convex_hull(quintic).vertices) == 5
    assert convex_hull([(0, 0, 0), (2, 2, 2), (1, 1, 1)]).vertices == ((0, 0, 0), (2, 2, 2))
    assert convex_hull([(1, 2)]).dim == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: dot((1, 2), (1, 2, 3)),
        lambda: vec_add((1,), (1, 2)),
        lambda: vec_sub((1, 2), (1,)),
        lambda: mat_vec([(1, 2), (3, 4)], (1, 2, 3)),
        lambda: vec_mat((1, 2, 3), [(1, 2), (3, 4)]),
    ],
    ids=["dot", "vec_add", "vec_sub", "mat_vec", "vec_mat"],
)
def test_kernel_helpers_reject_length_mismatch(call):
    with pytest.raises(ValueError):
        call()


# --- lattice points ----------------------------------------------------------


def _combination_levels(supports):
    """Projection levels of the Minkowski sum of the supports, with its fan.

    The top level is the normal fan's rays with the degree rows, as step 7
    of the hodge recursion builds it: sum_i c_i Delta_i is
    {x : <ray_j, x> >= -sum_i c_i d_ij}.
    """
    delta = minkowski_support(supports)
    fan = normal_fan(delta, delta.dim)
    degrees = degrees_of(fan, supports)
    top = [(ray, tuple(-d for d in col)) for ray, col in zip(fan.rays, zip(*degrees))]
    return fan, degrees, projection_levels(top, delta.vertices, supports)


def _count_combination(levels, c):
    """Lattice points of sum_i c_i Delta_i, counted on its projection levels."""
    bounded = [[(u, sum(x * y for x, y in zip(c, h))) for u, h in level] for level in levels]
    return _count_levels(bounded, len(levels))


def _brute_combination(fan, degrees, supports, c):
    """The same count by a box scan of {x : <ray_j, x> >= -sum_i c_i d_ij}."""
    cons = [(ray, -sum(x * row[j] for x, row in zip(c, degrees)))
            for j, ray in enumerate(fan.rays)]
    box = [(sum(x * min(col) for x, col in zip(c, cols)),
            sum(x * max(col) for x, col in zip(c, cols)))
           for cols in zip(*[list(zip(*s)) for s in supports])]
    return brute_count(cons, fan.dim, box)


def _fold_count(cons, dim):
    """Lattice points of a system, counted on its carried cascade."""
    levels = _fold(cons, dim)
    return 0 if levels is None else _count_levels([level.items() for level in levels], dim)


def test_lattice_points_interval():
    cons = (((1,), 0), ((-1,), -2))
    assert brute_box_points(cons, 1, 3) == [(0,), (1,), (2,)]
    _, _, levels = _combination_levels([[(0,), (2,)]])
    assert sorted(levels[0]) == [((-1,), (-2,)), ((1,), (0,))]
    assert [_count_combination(levels, (c,)) for c in range(4)] == [1, 3, 5, 7]


def test_lattice_points_halfline_unbounded():
    assert not cascade_is_bounded(_fold((((1,), 0),), 1))


def test_lattice_points_triangle_vs_box_oracle():
    cons = (((1, 1), 0), ((-1, 0), -1), ((0, -1), -1))
    assert len(brute_box_points(cons, 2, 3)) == brute_count(cons, 2) == 6
    # the same triangle from its vertices, and its dilates
    support = [(1, 1), (-1, 1), (1, -1)]
    fan, degrees, levels = _combination_levels([support])
    for c in range(5):
        assert _count_combination(levels, (c,)) == _brute_combination(
            fan, degrees, [support], (c,)) == (c + 1) * (2 * c + 1)


def test_lattice_points_empty_region():
    cons = (((1,), 5), ((-1,), 5))
    assert _fold(cons, 1) is None
    assert _fold_count(cons, 1) == brute_count(cons, 1) == 0


def test_lattice_points_fractional_bounds():
    # 1/2 <= x <= 7/2, written with integer bounds as 2x >= 1 and -2x >= -7
    cons = (((2,), 1), ((-2,), -7))
    assert brute_box_points(cons, 1, 4) == [(1,), (2,), (3,)]
    assert _fold_count(cons, 1) == 3


def test_import_loads_no_fractions_module():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import sys, toric_hodge; sys.exit('fractions' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6)),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=80, deadline=None)
def test_count_lattice_points_matches_the_point_list(rows):
    box = (((1, 0), -4), ((-1, 0), -4), ((0, 1), -4), ((0, -1), -4))
    cons = box + tuple(((a, b), c) for a, b, c in rows)
    pts = brute_box_points(cons, 2, 4)
    assert _fold_count(cons, 2) == len(pts)
    if pts:
        assert _fold(cons, 2) is not None


def test_count_lattice_points_unbounded_and_point():
    assert not cascade_is_bounded(_fold((((1, 0), 0), ((0, 1), 0), ((0, -1), 0)), 2))
    assert _fold_count((), 0) == 1
    assert _fold_count(((((), 1),)), 0) == 0


@st.composite
def boxed_systems(draw):
    """(dim, constraints): box rows -B <= x_i <= B and 1-5 drawn rows, dims 1-5.

    A drawn row is one of: coefficients in [-4, 4] with a free bound; a
    multiple k*n of an earlier row with a bound k*b + r, 0 < r < k, that
    the row gcd does not divide; the opposite of an earlier row, closing a
    slab b <= n.x <= b + w of width w in -1..2 (empty for w = -1, a
    hyperplane for w = 0); or the corner x >= p, sum(x) <= sum(p) of a
    simplex holding the single lattice point p.
    """
    dim = draw(st.integers(1, 5))
    radius = draw(st.integers(0, {4: 3, 5: 2}.get(dim, 5)))
    cons = []
    for i in range(dim):
        e = tuple(int(j == i) for j in range(dim))
        cons += [(e, -radius), (tuple(-x for x in e), -radius)]
    drawn = []
    reach = dim * radius + 1  # most drawn hyperplanes cut the box
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("free", "free", "multiple", "opposite", "point")))
        if kind == "point":
            p = draw(st.tuples(*[st.integers(-radius, radius)] * dim))
            for i in range(dim):
                cons.append((tuple(int(j == i) for j in range(dim)), p[i]))
            cons.append(((-1,) * dim, -sum(p)))
        elif kind == "free" or not drawn:
            n = draw(st.tuples(*[st.integers(-4, 4)] * dim).filter(any))
            drawn.append((n, draw(st.integers(-reach, reach))))
        elif kind == "multiple":
            n, b = draw(st.sampled_from(drawn))
            k = draw(st.integers(2, 4))
            drawn.append((tuple(k * x for x in n), k * b + draw(st.integers(1, k - 1))))
        else:
            n, b = draw(st.sampled_from(drawn))
            w = draw(st.integers(-1, 2))
            drawn.append((tuple(-x for x in n), -(b + w)))
    return dim, tuple(cons + drawn)


@given(boxed_systems())
@settings(max_examples=300, deadline=None)
@example((2, (((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0), ((1, 1), 0))))
@example((3, (((1, 0, 0), -2), ((-1, 0, 0), -2), ((0, 1, 0), -2), ((0, -1, 0), -2),
              ((0, 0, 1), -2), ((0, 0, -1), -2), ((2, -4, 2), 1), ((-2, 4, -2), -1))))
def test_count_lattice_points_matches_brute_count(system):
    dim, cons = system
    assert _fold_count(cons, dim) == brute_count(cons, dim)


@st.composite
def combination_systems(draw):
    """1-2 supports of 2-5 points in [0, 2]^m, m = 2..4, with a full-dimensional sum."""
    m = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(0, 2)] * m)
    supports = [
        draw(st.lists(point, min_size=2, max_size=5, unique=True))
        for _ in range(draw(st.integers(1, 2)))
    ]
    assume(minkowski_support(supports).dim == m)
    return supports


@given(combination_systems())
@settings(max_examples=60, deadline=None)
def test_projection_levels_count_minkowski_combinations(supports):
    # every nonnegative combination sum_i c_i Delta_i, c = 0 included, is
    # counted exactly on the projection levels of Delta built once
    fan, degrees, levels = _combination_levels(supports)
    m = fan.dim
    vertices = minkowski_support(supports).vertices
    for t in range(2, m):  # below the top: the facets of each projection's hull
        hull = convex_hull({v[:t] for v in vertices})
        assert sorted(u for u, _ in levels[t - 1]) == sorted(n for n, _ in hull.facets)
    for c in product(range(3), repeat=len(supports)):
        if sum(c) <= 2:
            assert _count_combination(levels, c) == _brute_combination(
                fan, degrees, supports, c), c


def test_floor_sum_matches_direct_summation():
    for n in range(7):
        for m in (1, 2, 3, 7):
            for a in range(-9, 10):
                for b in range(-9, 10):
                    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))
    n, m, a, b = 10**5, 97, -1234, 56789
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@pytest.mark.parametrize(
    "lines,lo,hi,pieces",
    [
        # parallel rows: the lower one is lowest throughout, whatever its scale
        ([(1, 0, 2), (1, -3, 2), (2, 1, 4)], 0, 9, [(0, 9, (1, -3, 2))]),
        # u and 6 - u cross at u = 3, where both are lowest
        ([(1, 0, 1), (-1, 6, 1)], 0, 6, [(0, 3, (1, 0, 1)), (4, 6, (-1, 6, 1))]),
        # a piece starting on that crossing takes the less steep line
        ([(1, 0, 1), (-1, 6, 1)], 3, 6, [(3, 6, (-1, 6, 1))]),
        # u and 5 - u cross at u = 5/2
        ([(1, 0, 1), (-1, 5, 1)], 0, 5, [(0, 2, (1, 0, 1)), (3, 5, (-1, 5, 1))]),
        # u/2 and (7 - 3u)/4 cross at u = 7/5; a third line never lowest
        ([(1, 0, 2), (-3, 7, 4), (0, 9, 1)], -2, 6,
         [(-2, 1, (1, 0, 2)), (2, 6, (-3, 7, 4))]),
    ],
)
def test_envelope_pieces(lines, lo, hi, pieces):
    assert list(_envelope(lines, lo, hi)) == pieces
    assert sum(
        _floor_sum(end - start + 1, m, a, a * start + b) for start, end, (a, b, m) in pieces
    ) == sum(min((a * u + b) // m for a, b, m in lines) for u in range(lo, hi + 1))


@pytest.mark.parametrize(
    "cons,count",
    [
        # 0 <= v, u <= 10 and two parallel upper rows u - 2v >= 0, u - 2v >= 3
        ((((0, 1), 0), ((-1, 0), -10), ((1, -2), 0), ((1, -2), 3)), 20),
        # 0 <= v <= min(u, 6 - u): upper rows cross at the integer u = 3
        ((((0, 1), 0), ((1, -1), 0), ((-1, -1), -6)), 16),
        # 0 <= v <= min(u, 5 - u): upper rows cross at u = 5/2
        ((((0, 1), 0), ((1, -1), 0), ((-1, -1), -5)), 12),
    ],
)
def test_count_lattice_points_plane_envelopes(cons, count):
    assert brute_count(cons, 2) == count
    assert _fold_count(cons, 2) == count


@pytest.mark.parametrize("m", [3, 4, 5])
def test_dilated_simplices_count_binomially(m):
    # d * simplex and its reflection through the origin hold C(d + m, m) points
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    for d in range(41):
        simplex = [(e, 0) for e in units] + [((-1,) * m, -d)]
        reflected = [(tuple(-x for x in n), b) for n, b in simplex]
        for cons in (simplex, reflected):
            assert _fold_count(cons, m) == comb(d + m, m), (m, d)
    # the same dilates from the simplex's vertices, counted on its projections
    for sign in (1, -1):
        support = [(0,) * m] + [tuple(sign * x for x in e) for e in units]
        _, _, levels = _combination_levels([support])
        for d in range(41):
            assert _count_combination(levels, (d,)) == comb(d + m, m), (m, d)


@pytest.mark.parametrize(
    "weights", [(1, 1, 1, 1), (1, 1, 2, 4), (1, 2, 3, 5, 7), (2, 3, 5, 7, 11, 13)]
)
def test_weighted_simplices_match_denumerants(weights):
    # {q : <p_j, q> >= -s_j} on the fan of P(w) holds c(sum_j w_j s_j) points
    fan = wps_fan(weights)
    rng = random.Random(len(weights))
    for _ in range(12):
        s = [rng.randint(-3, 12) for _ in weights]
        cons = tuple((ray, -x) for ray, x in zip(fan.rays, s))
        assert _fold_count(cons, fan.dim) == wps_lattice_count(weights, s), s


def test_sweep_takes_envelopes_above_dimension_two(monkeypatch):
    # both v-sides have two lines: x_5 <= min(2, x_1 + x_4 + 2) and
    # x_5 >= max(-2, x_4 - x_2 - 1)
    box = [(tuple(c * int(i == j) for i in range(5)), -2) for j in range(5) for c in (1, -1)]
    cons = tuple(box + [((1, 0, 0, 1, -1), -2), ((0, 1, 0, -1, 1), -1)])
    calls = []
    envelope = lattice._envelope
    monkeypatch.setattr(lattice, "_envelope", lambda *a: calls.append(a) or envelope(*a))
    assert _fold_count(cons, 5) == brute_count(cons, 5)
    assert calls and all(len(lines) == 2 for lines, _, _ in calls)


def _fold(cons, dim):
    """The carried cascade of a system, built one row at a time; None when empty."""
    levels = [{}] * dim
    for n, b in cons:
        levels = extend_cascade(levels, n, b)
        if levels is None:
            return None
    return levels


@given(boxed_systems())
@settings(max_examples=300, deadline=None)
# empty only through a pair of rows that are both fresh on the middle level
@example((3, (((1, 0, 0), -3), ((-1, 0, 0), -3), ((0, 1, 0), -3), ((0, -1, 0), -3),
              ((0, 0, 1), -3), ((0, 0, -1), -3), ((3, 1, 2), -2), ((0, -3, 3), -2),
              ((3, -3, 2), 1), ((-3, 1, -2), 3))))
def test_extend_cascade_matches_whole_system_elimination(system):
    dim, cons = system
    folded = _fold(cons, dim)
    # rational emptiness, from the oracle's own elimination of all but one
    # coordinate: a violated constant row or an empty interval
    bounds = _fm_coordinate_bounds(cons, dim)
    empty = bounds == "empty" or any(
        lo is not None and hi is not None and lo > hi for lo, hi in bounds
    )
    assert (folded is None) == empty
    count = brute_count(cons, dim)
    if folded is None:
        assert count == 0
    else:
        assert len(folded[0]) <= 2  # the tightest lower and upper row of x_1
        assert _count_levels([level.items() for level in folded], dim) == count


def test_extend_cascade_is_rational():
    # x = 1/2 is the only solution: non-empty over Q with no lattice point
    half = (((2,), 1), ((-2,), -1))
    assert _count_levels([level.items() for level in _fold(half, 1)], 1) == 0
    assert _fold((((1, 1), 3), ((-1, 0), 0), ((0, -1), 0)), 2) is None
    assert _fold((((1, 0), 0),), 2) is not None  # unbounded is fine
    assert _fold((), 0) == []
    assert _fold(((((), 0),)), 0) == []
    assert _fold(((((), 1),)), 0) is None


def test_extend_cascade_leaves_the_parent_unchanged():
    square = (((1, 0), 0), ((-1, 0), -3), ((0, 1), 0), ((0, -1), -3))
    parent = _fold(square, 2)
    snapshot = [dict(level) for level in parent]
    child = extend_cascade(parent, (-1, -1), -2)  # x + y <= 2
    assert parent == snapshot
    assert _count_levels([level.items() for level in parent], 2) == 16
    assert _count_levels([level.items() for level in child], 2) == 6
    # a row that is not tighter than the level's own leaves every level shared
    same = extend_cascade(parent, (2, 0), -2)  # x >= -1
    assert all(a is b for a, b in zip(same, parent))


def test_extend_cascade_step_cap():
    # one fresh lower row of y meets every upper row of its level
    uppers = {(a, -1): 0 for a in range(MAX_FM_PAIRS + 1)}
    with pytest.raises(ValueError, match="the supported maximum is"):
        extend_cascade([{}, uppers], (0, 1), 0)
    del uppers[(MAX_FM_PAIRS, -1)]
    assert extend_cascade([{}, uppers], (0, 1), 0) is not None


cone_constraint_sets = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    min_size=3,
    max_size=7,
)


@given(cone_constraint_sets)
@settings(max_examples=80, deadline=None)
def test_cone_extreme_rays_invariants(normals):
    from toric_hodge.lattice import cone_extreme_rays, rank_of

    normals = [n for n in normals if any(x != 0 for x in n)]
    if not normals or rank_of(normals) < 3:
        return  # not pointed; out of scope for the enumerator
    rays = cone_extreme_rays(normals, 3)
    for r in rays:
        assert all(dot(n, r) >= 0 for n in normals)
        tight = [n for n in normals if dot(n, r) == 0]
        assert rank_of(tight) == 2  # extreme rays lie on a rank-(dim-1) face
        assert primitive(r) == r
    assert len(set(rays)) == len(rays)


@st.composite
def cone_systems(draw):
    """(dim, normals) in dims 2-4.  Half the time every normal is made
    nonnegative on a drawn witness vector, so the cone is rarely {0}.
    Repeats and nonnegative combinations of rows are redundant and, placed
    last, cut no ray."""
    dim = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    normals = draw(st.lists(vec, min_size=dim - 1, max_size=dim + 4))
    if draw(st.booleans()):
        w = draw(vec)
        normals = [n if dot(n, w) >= 0 else tuple(-x for x in n) for n in normals]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(normals) - 1))
        j = draw(st.integers(0, len(normals) - 1))
        a, b = draw(st.integers(0, 2)), draw(st.integers(1, 2))
        normals.append(tuple(a * x + b * y for x, y in zip(normals[i], normals[j])))
    return dim, normals


@given(cone_systems())
@settings(max_examples=300, deadline=None)
def test_cone_extreme_rays_match_enumeration(system):
    from toric_hodge.lattice import cone_extreme_rays

    dim, normals = system
    if sp.Matrix(normals).rank() < dim:
        with pytest.raises(ValueError):
            cone_extreme_rays(normals, dim)
        return
    assert cone_extreme_rays(normals, dim) == brute_extreme_rays(normals, dim)


def test_full_dimensional_work_is_one_elimination(monkeypatch):
    # dim independent normals: the simplex is its own answer, from one
    # elimination of [B | I]; a full-dimensional hull needs no saturation
    calls = []
    eliminate = lattice._eliminate
    monkeypatch.setattr(lattice, "_eliminate", lambda rows: calls.append(rows) or eliminate(rows))
    normals = [(1, 2, 0), (0, 1, -1), (3, 0, 1)]
    assert list(lattice._double_description(normals, 3).values()) == [0b110, 0b101, 0b011]
    assert len(calls) == 1

    def forbidden(rows, dim):
        raise AssertionError("convex_hull built a row lattice")

    monkeypatch.setattr(lattice, "row_lattice", forbidden)
    assert convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]).dim == 3


def test_lattice_points_unimodular_invariance():
    rng = random.Random(11)
    cons = (((1, 1), 0), ((-1, 0), -2), ((0, -1), -2), ((1, -1), -3))
    count = brute_count(cons, 2)
    assert _fold_count(cons, 2) == count
    for _ in range(25):
        u = unimodular_matrix(2, rng)
        # substitute x = U x' : transformed normal is n U
        new_cons = tuple(
            (tuple(sum(n[i] * u[i][j] for i in range(2)) for j in range(2)), b)
            for n, b in cons
        )
        assert brute_count(new_cons, 2) == count
        assert _fold_count(new_cons, 2) == count


# --- minkowski sums ----------------------------------------------------------


def test_minkowski_segment():
    poly = minkowski_support([[(0,)], [(0,), (1,)]])
    assert poly.vertices == ((0,), (1,))


def test_minkowski_dilation():
    simplex = [(0, 0), (1, 0), (0, 1)]
    poly = minkowski_support([simplex, simplex])
    assert poly.vertices == ((0, 0), (0, 2), (2, 0))


def test_minkowski_square_from_segments():
    poly = minkowski_support([[(0, 0), (1, 0)], [(0, 0), (0, 1)]])
    assert poly.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert set(poly.facets) == _facet_normals_by_vertex_pairs(poly.vertices)


@st.composite
def support_systems(draw):
    """1-3 supports in dims 1-3.  Half the time every point lies in the
    span of two drawn vectors, so the sum is often lower-dimensional."""
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * dim)
    point = vec
    if draw(st.booleans()):
        u, v = draw(vec), draw(vec)
        point = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
            lambda ab: tuple(ab[0] * x + ab[1] * y for x, y in zip(u, v))
        )
    return draw(st.lists(st.lists(point, min_size=1, max_size=5), min_size=1, max_size=3))


@given(support_systems())
@settings(max_examples=200, deadline=None)
def test_minkowski_is_hull_of_all_sums(supports):
    sums = [tuple(map(sum, zip(*combo))) for combo in product(*supports)]
    assert minkowski_support(supports) == convex_hull(sums)


@given(support_systems())
@settings(max_examples=100, deadline=None)
def test_minkowski_of_vertex_sets_hulls_only_the_sum(supports):
    vertex_sets = [convex_hull(s).vertices for s in supports]
    calls = []
    hull = lattice.convex_hull
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "convex_hull", lambda pts: calls.append(1) or hull(pts))
        poly = minkowski_support(vertex_sets, vertices=True)
    assert poly == minkowski_support(supports)
    assert len(calls) == 1


def test_minkowski_single_support_given_as_lists():
    poly = minkowski_support([[[0, 1], [1, 0], [0, 0]]])
    assert poly == convex_hull([(0, 0), (0, 1), (1, 0)])


def test_minkowski_empty_support():
    with pytest.raises(ValueError):
        minkowski_support([[(0, 0)], []])


# --- affine lattice reduction ------------------------------------------------


def test_reduction_saturates_index_two():
    red = affine_lattice_reduction([[(0, 0), (2, 0)]])
    assert red.rank == 1
    # coordinates are taken in the saturated lattice, so the doubled point
    # keeps its index: {0, 2}, not {0, 1}
    assert red.supports == (((0,), (2,)),)


def test_reduction_full_rank():
    red = affine_lattice_reduction([[(0, 0), (1, 0), (0, 1)]])
    assert red.rank == 2
    assert red.supports == (((0, 0), (0, 1), (1, 0)),)


def test_reduction_singleton():
    red = affine_lattice_reduction([[(1, 1)]])
    assert red.rank == 0
    assert red.supports == (((),),)


def test_reduction_translation_applied_per_support():
    red = affine_lattice_reduction([[(5, 7), (6, 7)], [(-3, 2), (-2, 2)]])
    assert red.rank == 1
    assert red.supports == (((0,), (1,)), ((0,), (1,)))


@given(
    st.lists(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_reduction_idempotent(supports):
    red = affine_lattice_reduction(supports)
    again = affine_lattice_reduction(red.supports)
    assert again.rank == red.rank
    assert again.supports == red.supports
