"""Hodge-Deligne tables: torus recursion and orbit sums."""

import random

import pytest

from toric_hodge.errors import ConsistencyError
from toric_hodge.fans import Fan, TorusCIProblem, degrees_of
from toric_hodge.forms import chi_alt
from toric_hodge.hilbert import build_context
from toric_hodge.hodge import clear_epq_memo, epq_c_ci, epq_torus, hodge_compact
from toric_hodge.hodge_tables import EPQTable, zero_table

from helpers import (
    apply_matrix,
    fan_octahedron,
    fan_p1,
    fan_p2,
    fan_p2p1,
    fan_p3,
    fan_p3p1,
    fan_wps_1423,
    product_support,
    simplex_support,
    unimodular_matrix,
)
from oracles import hodge_from_chi_y_lefschetz

TRIANGLE = ((0, 0), (1, 0), (0, 1))


# --- torus tables --------------------------------------------------------------


def test_torus_point():
    assert epq_torus(0, "ordinary").entries == ((1,),)
    assert epq_torus(0, "compact").entries == ((1,),)


def test_torus_one_dimensional():
    assert epq_torus(1, "ordinary").entries == ((1, 0), (0, -1))
    assert epq_torus(1, "compact").entries == ((-1, 0), (0, 1))


def test_torus_two_dimensional_compact():
    assert epq_torus(2, "compact").entries == ((1, 0, 0), (0, -2, 0), (0, 0, 1))


def test_torus_rejects_negative_dimension():
    with pytest.raises(ValueError):
        epq_torus(-1, "compact")


# --- epq_c_ci ------------------------------------------------------------------


def test_triangle_support():
    t = epq_c_ci(TorusCIProblem(2, [TRIANGLE]))
    assert t.entries == ((-2, 0), (0, 1))


def test_single_point_in_line_torus():
    t = epq_c_ci(TorusCIProblem(1, [((0,), (1,))]))
    assert t.entries == ((1,),)


def test_kuenneth_vertical_line():
    t = epq_c_ci(TorusCIProblem(2, [((0, 0), (1, 0))]))
    assert t.entries == ((-1, 0), (0, 1))


def test_index_two_support_counts_double_cover():
    # a + b t^2 cuts two points out of the line torus
    t = epq_c_ci(TorusCIProblem(1, [((0,), (2,))]))
    assert t.entries == ((2,),)
    # and the same equation pulled into a 2-torus keeps both sheets
    t2 = epq_c_ci(TorusCIProblem(2, [((0, 0), (2, 0))]))
    assert t2.entries == ((-2, 0), (0, 2))


def test_singleton_support_is_empty():
    t = epq_c_ci(TorusCIProblem(2, [((1, 1),)]))
    assert t.is_zero()


def test_overdetermined_is_empty():
    t = epq_c_ci(TorusCIProblem(1, [((0,), (1,)), ((0,), (2,))]))
    assert t.size == 0 or t.is_zero()


def test_elliptic_curve_minus_nine_points():
    t = epq_c_ci(TorusCIProblem(2, [simplex_support(2, 3)]))
    assert t.entries == ((-8, -1), (-1, 1))


def test_euler_characteristic_of_punctured_line():
    t = epq_c_ci(TorusCIProblem(2, [TRIANGLE]))
    assert t.total() == -1  # three-punctured sphere


def test_two_equations_point_in_square_torus():
    t = epq_c_ci(TorusCIProblem(2, [((0, 0), (1, 0)), ((0, 0), (0, 1))]))
    assert t.entries == ((1,),)


def test_epq_invariance_translation_unimodular_permutation():
    rng = random.Random(41)
    base_problems = [
        [TRIANGLE],
        [simplex_support(2, 2)],
        [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1))],
    ]
    for supports in base_problems:
        want = epq_c_ci(TorusCIProblem(2, supports)).entries
        for _ in range(8):
            u = unimodular_matrix(2, rng)
            shifted = []
            for s in supports:
                t = (rng.randint(-4, 4), rng.randint(-4, 4))
                shifted.append(
                    [tuple(a + b for a, b in zip(apply_matrix(u, q), t)) for q in s]
                )
            rng.shuffle(shifted)
            got = epq_c_ci(TorusCIProblem(2, shifted)).entries
            assert got == want


def test_memo_clearing_is_sound():
    prob = TorusCIProblem(2, [simplex_support(2, 3)])
    first = epq_c_ci(prob)
    clear_epq_memo()
    assert epq_c_ci(prob).entries == first.entries


# --- hodge_compact -------------------------------------------------------------


def test_plane_cubic_diamond():
    t = hodge_compact(fan_p2(), [simplex_support(2, 3)])
    assert t.entries == ((1, 1), (1, 1))


def test_quadric_surface_diamond():
    t = hodge_compact(fan_p3(), [simplex_support(3, 2)])
    assert t.entries == ((1, 0, 0), (0, 2, 0), (0, 0, 1))


def test_product_fan_graph_surface():
    # a (1,1)-divisor on the product of the plane and the line has the
    # diamond of a quadric surface even though its class is different
    fan = fan_p2p1()
    t = hodge_compact(fan, [((1, 0, 0), (0, 1, 1))])
    assert t.entries == ((1, 0, 0), (0, 2, 0), (0, 0, 1))


def test_graph_threefold_h11_is_four():
    fan = fan_p3p1()
    supports = [
        ((0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)),
        ((1, 0, 0, 0), (0, 1, 0, 1)),
    ]
    t = hodge_compact(fan, supports)
    assert t.entries == ((1, 0, 0), (0, 4, 0), (0, 0, 1))


def test_k0_tables_are_diagonal():
    # rational cohomology of these spaces matches ordinary projective space
    for fan in (fan_p2(), fan_p3(), fan_wps_1423()):
        t = hodge_compact(fan, [])
        assert t.bound == fan.dim
        for p in range(t.size):
            for q in range(t.size):
                assert t.get(p, q) == (1 if p == q else 0)


def test_hodge_symmetries_and_signed_sum():
    fixtures = [
        (fan_p2(), [simplex_support(2, 3)]),
        (fan_p3(), [simplex_support(3, 2)]),
        (fan_p2p1(), [product_support([(2, 1), (1, 1)])]),
    ]
    for fan, supports in fixtures:
        t = hodge_compact(fan, supports)
        n = t.bound
        ctx = build_context(fan)
        degs = degrees_of(fan, supports)
        for p in range(n + 1):
            for q in range(n + 1):
                assert t.get(p, q) == t.get(q, p)
                assert t.get(p, q) == t.get(n - p, n - q)
                assert t.get(p, q) >= 0
        signed = sum(
            (-1) ** (p + q) * t.get(p, q) for p in range(n + 1) for q in range(n + 1)
        )
        euler = sum((-1) ** p * chi_alt(ctx, degs, p) for p in range(n + 1))
        assert signed == euler  # both sides are the topological Euler number
        assert t.get(0, 0) >= 1


def test_hodge_compact_matches_lefschetz_oracle():
    t = hodge_compact(fan_p3(), [simplex_support(3, 3)])  # cubic surface
    assert [list(r) for r in t.entries] == hodge_from_chi_y_lefschetz(3, [3])


def test_hodge_compact_rejects_non_complete():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError, match="complete"):
        hodge_compact(fan, [])


def test_hodge_compact_rejects_non_simplicial():
    with pytest.raises(ValueError, match="simplicial"):
        hodge_compact(fan_octahedron(), [])


def test_hodge_compact_rejects_overdetermined():
    with pytest.raises(ValueError):
        hodge_compact(fan_p1(), [((0,), (1,)), ((0,), (1,))])


# --- table plumbing ------------------------------------------------------------


def test_table_addition_pads():
    a = EPQTable(((1,),), "compact")
    b = EPQTable(((0, 0), (0, 2)), "compact")
    assert a.add(b).entries == ((1, 0), (0, 2))


def test_zero_table_negative_bound_is_empty():
    t = zero_table(-1, "compact")
    assert t.size == 0 and t.get(0, 0) == 0


def test_table_dual():
    t = EPQTable(((1, 2), (3, 4)), "ordinary")
    assert t.dual(1).entries == ((4, 3), (2, 1))


def test_torus_bezout_counts():
    line = ((0, 0), (1, 0), (0, 1))
    assert epq_c_ci(TorusCIProblem(2, [line, line])).entries == ((1,),)
    conic = simplex_support(2, 2)
    assert epq_c_ci(TorusCIProblem(2, [line, conic])).entries == ((2,),)


def test_product_curve_genera():
    # a bidegree-(a,b) curve on the product of two lines has genus (a-1)(b-1)
    from helpers import fan_p1p1

    fan = fan_p1p1()
    for (a, b), genus in [((1, 1), 0), ((2, 2), 1), ((1, 3), 0), ((2, 3), 2)]:
        t = hodge_compact(fan, [product_support([(1, a), (1, b)])])
        assert t.entries == ((1, genus), (genus, 1)), (a, b)


def test_conic_bundle_surface():
    # a (2,2)-divisor on (plane x line) is a conic bundle with six singular
    # fibers: euler number 10, all of rank 8 middle cohomology of type (1,1)
    t = hodge_compact(fan_p2p1(), [product_support([(2, 2), (1, 2)])])
    assert t.entries == ((1, 0, 0), (0, 8, 0), (0, 0, 1))


def test_bernstein_mixed_count():
    # mixed volume of a segment and a triangle: one intersection point
    t = epq_c_ci(TorusCIProblem(2, [((0, 0), (1, 0)), ((0, 0), (1, 0), (0, 1))]))
    assert t.entries == ((1,),)


def test_triple_product_k3():
    # tridegree (2,2,2) on the product of three lines is a K3 surface;
    # the Newton polytope is a cube, not a simplex
    from helpers import fan_p1p1p1

    t = hodge_compact(fan_p1p1p1(), [product_support([(1, 2), (1, 2), (1, 2)])])
    assert t.entries == ((1, 0, 1), (0, 20, 0), (1, 0, 1))


def test_concurrent_evaluation_is_bit_identical():
    import threading

    prob = TorusCIProblem(2, [simplex_support(2, 3)])
    expected = epq_c_ci(prob).entries
    clear_epq_memo()
    results = []
    errors = []

    def worker():
        try:
            results.append(epq_c_ci(prob).entries)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert all(r == expected for r in results)


# --- Newton-volume Euler characteristics (independent oracle) -------------------


def _normalized_volume_oracle(cases):
    # chi of a nondegenerate torus hypersurface is the signed normalized
    # volume of its Newton polytope;volumes below are classical values
    for m, support, normvol in cases:
        table = epq_c_ci(TorusCIProblem(m, [support]))
        assert table.total() == (-1) ** (m - 1) * normvol, support


def test_euler_equals_newton_volume_small():
    _normalized_volume_oracle(
        [
            (2, ((0, 0), (1, 0), (0, 1)), 1),
            (2, simplex_support(2, 3), 9),
            (2, simplex_support(2, 4), 16),
            (3, simplex_support(3, 2), 8),
        ]
    )


def test_quartic_torus_curve_table():
    # genus 3 with 12 boundary points: e_c = [[-11, -3], [-3, 1]]
    t = epq_c_ci(TorusCIProblem(2, [simplex_support(2, 4)]))
    assert t.entries == ((-11, -3), (-3, 1))


def test_euler_equals_newton_volume_octahedron():
    # the normal fan of the cross-polytope is non-simplicial, so this input
    # exercises stellar subdivision inside the recursion (14 rays, 24 cones)
    support = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0))
    _normalized_volume_oracle([(3, support, 8)])
