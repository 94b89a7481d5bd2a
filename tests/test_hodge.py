"""Hodge-Deligne tables: torus recursion and orbit sums."""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toric_hodge.errors import ConsistencyError
from toric_hodge.fans import (
    Fan,
    TorusCIProblem,
    degrees_of,
    normal_fan,
    simplicial_refinement,
)
from toric_hodge.forms import chi_all, chi_alt
from toric_hodge.hilbert import build_context
from toric_hodge.hodge import clear_epq_memo, epq_c_ci, epq_torus, hodge_compact
from toric_hodge.hodge_tables import zero_table
from toric_hodge.lattice import convex_hull, minkowski_support

from helpers import (
    apply_matrix,
    fan_octahedron,
    fan_p1,
    fan_p1p1,
    fan_p1p1p1,
    fan_p2,
    fan_p2p1,
    fan_p3,
    fan_p3p1,
    fan_projective,
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


@st.composite
def torus_systems_with_hull_points(draw):
    """Supports in (C*)^2-(C*)^3, and the same supports with hull points added."""
    m = draw(st.integers(2, 3))
    point = st.tuples(*[st.integers(0, 2)] * m)
    supports, dense = [], []
    for _ in range(draw(st.integers(1, 2))):
        s = draw(st.lists(point, min_size=2, max_size=5, unique=True))
        hull = convex_hull(s)
        inside = [q for q in product(range(3), repeat=m) if hull.contains(q)]
        supports.append(s)
        dense.append(s + draw(st.lists(st.sampled_from(inside), min_size=1)))
    return m, supports, dense


def _table_or_error(m, supports):
    clear_epq_memo()
    try:
        return epq_c_ci(TorusCIProblem(m, supports)).entries
    except ValueError as exc:
        return type(exc)


@given(torus_systems_with_hull_points())
@settings(max_examples=40, deadline=None)
def test_tables_depend_only_on_the_newton_polytopes(case):
    m, supports, dense = case
    assert _table_or_error(m, dense) == _table_or_error(m, supports)


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


def test_quintic_diamond_from_dense_or_vertex_supports():
    dense = simplex_support(4, 5)
    vertices = convex_hull(dense).vertices
    assert (len(dense), len(vertices)) == (126, 5)
    clear_epq_memo()
    from_dense = hodge_compact(fan_projective(4), [dense])
    clear_epq_memo()
    assert hodge_compact(fan_projective(4), [vertices]) == from_dense
    assert from_dense.get(1, 1) == 1 and from_dense.get(2, 1) == 101


def test_epq_memo_keeps_at_most_its_cap(monkeypatch):
    import toric_hodge.hodge as hodge_mod

    fan, supports = fan_projective(4), [simplex_support(4, 2), simplex_support(4, 3)]
    clear_epq_memo()
    uncapped = hodge_compact(fan, supports)
    assert len(hodge_mod._epq_memo) > 3
    clear_epq_memo()
    monkeypatch.setattr(hodge_mod, "MAX_EPQ_MEMO", 3)
    assert hodge_compact(fan, supports) == uncapped
    assert len(hodge_mod._epq_memo) <= 3
    clear_epq_memo()


def test_recursion_carries_vertices_and_skips_empty_orbits(monkeypatch):
    # every call below the quintic's 126-point support sees vertex sets only,
    # and no orbit whose table is zero by step 1 reaches the recursion
    import toric_hodge.hodge as hodge_mod

    seen = []
    original = hodge_mod.epq_c_ci

    def recording(problem, **kwargs):
        seen.append(problem)
        return original(problem, **kwargs)

    monkeypatch.setattr(hodge_mod, "epq_c_ci", recording)
    clear_epq_memo()
    hodge_compact(fan_projective(4), [simplex_support(4, 5)])
    clear_epq_memo()
    assert seen
    for problem in seen:
        assert problem.k <= problem.m
        for s in problem.supports:
            assert len(s) > 1
            assert s == convex_hull(s).vertices


def test_restrict_supports_runs_once_per_orbit(monkeypatch):
    # _orbit_sum restricts each cone's supports once and hands the survivors
    # to orbit_problem, which restricts nothing
    import toric_hodge.fans as fans_mod
    import toric_hodge.hodge as hodge_mod

    counts = {"restrict": 0, "cones": 0, "orbits": 0}
    restrict, orbit_sum, orbit = (
        fans_mod.restrict_supports, hodge_mod._orbit_sum, hodge_mod.orbit_problem)

    def counting_restrict(*args):
        counts["restrict"] += 1
        return restrict(*args)

    def counting_orbit_sum(fan, cones, *args):
        counts["cones"] += len(cones)
        return orbit_sum(fan, cones, *args)

    def counting_orbit(*args):
        counts["orbits"] += 1
        return orbit(*args)

    for module in (fans_mod, hodge_mod):
        monkeypatch.setattr(module, "restrict_supports", counting_restrict)
    monkeypatch.setattr(hodge_mod, "_orbit_sum", counting_orbit_sum)
    monkeypatch.setattr(hodge_mod, "orbit_problem", counting_orbit)
    clear_epq_memo()
    table = hodge_compact(fan_p2p1(), [product_support([(2, 2), (1, 1)])])
    clear_epq_memo()
    assert table.get(1, 1) > 0
    assert counts["restrict"] == counts["cones"] > counts["orbits"] > 0


def test_orbit_cone_cap_is_checked_before_sub_collections(monkeypatch):
    # a two-equation system past the (lowered) cap exits before step 4
    # solves either one-equation sub-collection
    import toric_hodge.hodge as hodge_mod

    seen = []
    compute = hodge_mod._epq_c_ci_compute

    def recording(problem, vertices):
        seen.append(problem.k)
        return compute(problem, vertices)

    monkeypatch.setattr(hodge_mod, "_epq_c_ci_compute", recording)
    monkeypatch.setattr(hodge_mod, "MAX_ORBIT_CONES", 3)
    problem = TorusCIProblem(2, [((0, 0), (1, 0), (0, 1)), ((0, 0), (2, 0), (0, 1), (1, 1))])
    clear_epq_memo()
    with pytest.raises(ValueError, match="maximal cones"):
        epq_c_ci(problem)
    clear_epq_memo()
    assert seen and set(seen) == {2}


def test_consistency_error_names_the_subproblem(monkeypatch):
    # break the row sums of the curves in (C*)^2 met as facet orbits of a
    # surface in (C*)^3: the duality check fires one level down
    import toric_hodge.hodge as hodge_mod

    row_sums = hodge_mod._open_row_sums

    def off_by_one_in_the_plane(m, n, levels):
        return [v + (m == 2 and p == 0) for p, v in enumerate(row_sums(m, n, levels))]

    monkeypatch.setattr(hodge_mod, "_open_row_sums", off_by_one_in_the_plane)
    vertices = ((0, 0, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0))
    clear_epq_memo()
    with pytest.raises(ConsistencyError) as info:
        epq_c_ci(TorusCIProblem(3, [vertices]))
    clear_epq_memo()
    m, supports = info.value.subproblem
    assert m == 2 and len(supports) == 1 and info.value.depth == 1
    text = str(info.value)
    assert info.value.check == "duality"
    assert text.startswith("duality mismatch in row 0")
    assert f"m=2, supports {supports}; recursion depth 1" in text


def test_every_consistency_check_is_named():
    # each raise site passes the name of its check, one of CHECKS
    import ast
    import pathlib

    from toric_hodge import errors

    package = pathlib.Path(errors.__file__).parent
    names = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if getattr(node.exc.func, "id", None) == "ConsistencyError":
                    names.append(node.exc.args[0].value)
    assert len(names) == 11 and set(names) == set(ConsistencyError.CHECKS)


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


def test_zero_table_negative_bound_is_empty():
    t = zero_table(-1, "compact")
    assert t.size == 0 and t.get(0, 0) == 0


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
    # exercises the pulling refinement inside the recursion (8 rays, 12 cones)
    support = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0))
    _normalized_volume_oracle([(3, support, 8)])


def test_pulled_fan_stays_under_the_orbit_cap():
    # a stellar refinement of this normal fan has 159 maximal cones; the
    # pulled one has fewer and gives the table that the stellar one gives
    clear_epq_memo()
    problem = TorusCIProblem(
        4,
        [
            ((0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)),
            ((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 1, 1, 0)),
        ],
    )
    assert epq_c_ci(problem).entries == ((13, 0, 1), (0, 0, 0), (1, 0, 1))


# --- Ehrhart row sums against the fan path ----------------------------------------

# helper fans with the projective-space blocks they are products of
BLOCK_FANS = [
    (fan_p1, (1,)),
    (fan_p2, (2,)),
    (fan_p3, (3,)),
    (fan_p1p1, (1, 1)),
    (fan_p2p1, (2, 1)),
    (fan_p1p1p1, (1, 1, 1)),
]


@st.composite
def compact_ci_cases(draw):
    """A complete simplicial fan and 1-2 supports whose Newton polytopes it refines."""
    if draw(st.booleans()):
        make, blocks = draw(st.sampled_from(BLOCK_FANS))
        fan = make()
        supports = []
        for _ in range(draw(st.integers(1, min(2, fan.dim)))):
            full = product_support([(b, draw(st.integers(1, 2))) for b in blocks])
            extra = draw(st.lists(st.sampled_from(full), max_size=3))
            supports.append(tuple(set(convex_hull(full).vertices) | set(extra)))
        return fan, supports
    m = draw(st.integers(2, 3))
    point = st.tuples(*[st.integers(0, 2)] * m)
    supports = [
        tuple(draw(st.lists(point, min_size=2, max_size=5, unique=True)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    delta = minkowski_support(supports)
    assume(delta.dim == m)
    fan = simplicial_refinement(normal_fan(delta, m))
    # well inside the 24-ray / 24-cone context caps: H(s) on a 3-D fan of 20
    # cones already takes seconds
    assume(len(fan.maximal_cones) <= 12)
    return fan, supports


@given(compact_ci_cases())
@settings(max_examples=60, deadline=None)
def test_hodge_rows_match_the_form_sheaf_chi(case):
    # sum_q (-1)^q h^{pq} = chi(Omega^p) of the closure, here from H(s) on the fan
    fan, supports = case
    n = fan.dim - len(supports)
    h = hodge_compact(fan, supports)
    chis = chi_all(build_context(fan), degrees_of(fan, supports), "alt", n)
    assert [sum((-1) ** q * h.get(p, q) for q in range(n + 1)) for p in range(n + 1)] == chis
