"""Exact linear algebra and polyhedral geometry."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_hodge.lattice import (
    RationalPolyhedron,
    affine_lattice_reduction,
    convex_hull,
    count_lattice_points,
    det_int,
    dot,
    is_feasible,
    lattice_points,
    minkowski_support,
    primitive,
    smith_normal_form,
)

from helpers import apply_matrix, unimodular_matrix
from oracles import brute_box_points


# --- smith normal form -------------------------------------------------------


def test_smith_identity():
    s = smith_normal_form([[1, 0], [0, 1]])
    assert s.diag == (1, 1)
    assert s.left == ((1, 0), (0, 1))
    assert s.right == ((1, 0), (0, 1))


def test_smith_hand_example():
    mat = [[2, 4], [6, 8]]
    s = smith_normal_form(mat)
    assert s.diag == (2, 4)
    assert s.check(mat)


def test_smith_zero_matrix():
    s = smith_normal_form([[0, 0], [0, 0]])
    assert s.diag == (0, 0)
    assert s.check([[0, 0], [0, 0]])


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_smith_properties(mat):
    s = smith_normal_form(mat)
    assert s.check(mat)
    assert all(d >= 0 for d in s.diag)
    nonzero = [d for d in s.diag if d != 0]
    assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
    # the diagonal is sorted with zeros trailing
    assert list(s.diag) == nonzero + [0] * (len(s.diag) - len(nonzero))
    assert abs(det_int([list(r) for r in s.left])) == 1
    assert abs(det_int([list(r) for r in s.right])) == 1


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


# --- lattice points ----------------------------------------------------------


def test_lattice_points_interval():
    region = RationalPolyhedron((((1,), 0), ((-1,), -2)), 1)
    assert lattice_points(region) == (True, [(0,), (1,), (2,)])


def test_lattice_points_halfline_unbounded():
    region = RationalPolyhedron((((1,), 0),), 1)
    assert lattice_points(region) == (False, [])


def test_lattice_points_triangle_vs_box_oracle():
    cons = (((1, 1), 0), ((-1, 0), -1), ((0, -1), -1))
    region = RationalPolyhedron(cons, 2)
    bounded, pts = lattice_points(region)
    assert bounded
    assert pts == brute_box_points(cons, 2, 3)
    assert len(pts) == 6


def test_lattice_points_empty_region():
    region = RationalPolyhedron((((1,), 5), ((-1,), 5)), 1)
    bounded, pts = lattice_points(region)
    assert bounded and pts == []


def test_lattice_points_fractional_bounds():
    region = RationalPolyhedron(
        (((2,), Fraction(1)), ((-2,), Fraction(-7))), 1
    )
    assert lattice_points(region) == (True, [(1,), (2,), (3,)])


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
    region = RationalPolyhedron(cons, 2)
    bounded, pts = lattice_points(region)
    assert bounded
    assert pts == brute_box_points(cons, 2, 4)
    assert count_lattice_points(region) == (True, len(pts))
    if pts:
        assert is_feasible(region)


def test_count_lattice_points_unbounded_and_point():
    assert count_lattice_points(RationalPolyhedron((((1,), 0),), 1)) == (False, 0)
    assert count_lattice_points(RationalPolyhedron((), 0)) == (True, 1)
    assert count_lattice_points(RationalPolyhedron((((), 1),), 0)) == (True, 0)


def test_is_feasible_is_rational():
    # x = 1/2 is the only solution: feasible over Q with no lattice point
    half = RationalPolyhedron((((2,), 1), ((-2,), -1)), 1)
    assert is_feasible(half)
    assert lattice_points(half) == (True, [])
    assert not is_feasible(RationalPolyhedron((((1, 1), 3), ((-1, 0), 0), ((0, -1), 0)), 2))
    assert is_feasible(RationalPolyhedron((((1, 0), 0),), 2))  # unbounded is fine
    assert is_feasible(RationalPolyhedron((), 0))
    assert not is_feasible(RationalPolyhedron((((), 1),), 0))


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


def test_polyhedron_vertices_exact():
    from toric_hodge.lattice import polyhedron_vertices

    region = RationalPolyhedron(
        (((2, 0), 1), ((-1, 0), -2), ((0, 1), 0), ((0, -1), -1)), 2
    )
    assert polyhedron_vertices(region) == [
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(1)),
    ]
    empty = RationalPolyhedron((((1,), 3), ((-1,), 0)), 1)
    assert polyhedron_vertices(empty) == []


def test_lattice_points_unimodular_invariance():
    rng = random.Random(11)
    cons = (((1, 1), 0), ((-1, 0), -2), ((0, -1), -2), ((1, -1), -3))
    region = RationalPolyhedron(cons, 2)
    _, base_pts = lattice_points(region)
    for _ in range(25):
        u = unimodular_matrix(2, rng)
        # substitute x = U x' : transformed normal is n U
        new_cons = tuple(
            (tuple(sum(n[i] * u[i][j] for i in range(2)) for j in range(2)), b)
            for n, b in cons
        )
        bounded, pts = lattice_points(RationalPolyhedron(new_cons, 2))
        assert bounded
        assert len(pts) == len(base_pts)
        mapped = sorted(apply_matrix(u, p) for p in pts)
        assert mapped == base_pts


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
