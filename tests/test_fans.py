"""Fan combinatorics: predicates, refinement, supports, orbits."""

import json
import math
import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import toric_hodge.fans as fans_mod
from toric_hodge import cli
from toric_hodge.fans import (
    Fan,
    TorusCIProblem,
    adapted_subfan,
    all_cones,
    cone_contains,
    cone_faces,
    cone_hrep,
    degrees_of,
    is_complete,
    is_regular,
    is_simplicial,
    normal_fan,
    orbit_problem,
    restrict_supports,
    simplicial_refinement,
    validate,
)
from toric_hodge.hilbert import build_context
from toric_hodge.hodge import clear_epq_memo, epq_c_ci, hodge_compact
from toric_hodge.lattice import convex_hull, minkowski_support, primitive, rank_of

from helpers import (
    apply_matrix,
    fan_octahedron,
    fan_p1,
    fan_p2,
    fan_p3,
    fan_p1p1,
    fan_p1p1p1,
    fan_p2p1,
    fan_p3p1,
    fan_projective,
    fan_wps_1423,
    polygon_fan,
    simplex_support,
    unimodular_matrix,
)
from oracles import (
    brute_extreme_rays,
    complete_by_ridges,
    cone_faces_by_facets,
    first_bad_pair,
    maximal_minors_gcd,
)


# --- validation --------------------------------------------------------------


def test_validate_projective_plane():
    assert validate(fan_p2()).ok


def test_validate_duplicate_ray():
    fan = Fan(2, ((1, 0), (1, 0)), ((0, 1),))
    report = validate(fan)
    assert not report.ok
    assert "duplicates" in report.first_violation


def test_validate_repeated_maximal_cone():
    # the same ray set listed twice, in either order, is named once per repeat
    for again in ((0, 1), (1, 0)):
        fan = Fan(2, fan_p2().rays, fan_p2().maximal_cones + (again,))
        report = validate(fan)
        assert not report.ok and not report.complete
        assert report.problems == ("cone (0, 1) repeats an earlier maximal cone",)


def test_validate_nonprimitive_ray():
    fan = Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    assert not validate(fan).ok


def test_validate_overlapping_cones():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1), (1, -1)), ((0, 1), (2, 3)))
    report = validate(fan)
    assert not report.ok
    assert "common face" in report.first_violation


def test_validate_missing_ray():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1),))
    assert not validate(fan).ok


def test_validate_redundant_generator():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1, 2),))
    report = validate(fan)
    assert not report.ok
    assert "redundant" in report.first_violation


@st.composite
def pointed_cones(draw):
    """3-7 distinct primitive rays spanning a pointed full-dimensional cone in
    Z^2..Z^4: drawn above the hyperplane x_dim = 0, some as sums of two
    earlier rays (redundant by construction), then moved by a unimodular map."""
    dim = draw(st.integers(2, 4))
    coord = st.integers(-3, 3)
    rays = []
    for _ in range(draw(st.integers(3, 7))):
        if len(rays) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(list(combinations(rays, 2))))
            ray = tuple(x + y for x, y in zip(a, b))
        else:
            ray = draw(st.tuples(*[coord] * (dim - 1), st.integers(1, 3)))
        rays.append(primitive(ray))
    rng = random.Random(draw(st.integers(0, 10**6)))
    mat = unimodular_matrix(dim, rng, steps=2)
    rays = list(dict.fromkeys(apply_matrix(mat, r) for r in rays))
    assume(len(rays) >= max(3, dim) and maximal_minors_gcd(rays) != 0)  # full-dimensional
    return dim, rays


@given(pointed_cones())
@settings(max_examples=200, deadline=None)
@example((2, [(1, 0), (0, 1), (1, 1)]))
@example((3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)]))
@example((3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]))  # dependent, none redundant
@example((3, [(1, 0, 1), (-1, 0, 1), (0, 0, 1), (0, 1, 1), (0, -1, 1)]))  # first 3 dependent
@example((4, [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1),
             (0, 0, -1, 1)]))  # over an octahedron: none redundant
def test_redundant_rays_match_the_extreme_rays(case):
    # facet normals are the extreme rays of the dual cone, and the extreme
    # rays of the cone those normals cut out are the irredundant rays; the
    # same rays in the hyperplane x_{dim+1} = 0 of Z^{dim+1} give a cone with
    # an equality and the same redundant rays.  A lifted cone of dim + 1 or
    # more rays is tried as a full-dimensional cone before its saturation
    dim, rays = case
    facets = brute_extreme_rays(rays, dim)
    extreme = set(brute_extreme_rays(facets, dim))
    cone = tuple(range(len(rays)))
    expected = [f"ray {i} is redundant in cone {cone}" for i in cone if rays[i] not in extreme]
    assert cone_hrep(Fan(dim, rays, (cone,)), cone) == ((), tuple(facets))
    for fan in (Fan(dim, rays, (cone,)), Fan(dim + 1, [r + (0,) for r in rays], (cone,))):
        report = validate(fan)
        assert [p for p in report.problems if "redundant" in p] == expected
        assert report.ok == (not expected) and not report.complete
        eqs, ineqs = cone_hrep(fan, cone)
        cut = brute_extreme_rays(ineqs + eqs + tuple(tuple(-x for x in e) for e in eqs), fan.dim)
        assert cut == sorted(fan.rays[i] for i in cone if rays[i] in extreme)


def test_simplicial_fans_build_maximal_cone_hreps_only():
    # a (C*)^4 hypersurface: 7 cones, not all simplicial, pulled into 26
    support = [(0, 1, 2, 2), (0, 2, 0, 2), (0, 2, 2, 1), (1, 0, 1, 0), (1, 0, 1, 1),
               (2, 1, 1, 0), (2, 2, 0, 1)]
    fan = simplicial_refinement(normal_fan(minkowski_support([support]), 4))
    assert is_simplicial(fan) and len(fan.maximal_cones) == 26
    fans_mod._cone_hrep.cache_clear()
    fans_mod._cone_lattice.cache_clear()
    assert validate(fan).complete
    assert fans_mod._cone_hrep.cache_info().misses == len(fan.maximal_cones)
    # full-dimensional cones are solved without a saturation
    assert fans_mod._cone_lattice.cache_info().misses == 0


def _count_certificates(monkeypatch):
    """Record every fan the wall certificate runs on, wherever it is imported."""
    import toric_hodge.hilbert as hilbert_mod
    import toric_hodge.hodge as hodge_mod

    calls = []
    certificate = fans_mod.is_complete

    def counted(fan):
        calls.append(fan)
        return certificate(fan)

    for mod in (fans_mod, hilbert_mod, hodge_mod, cli):
        if hasattr(mod, "is_complete"):
            monkeypatch.setattr(mod, "is_complete", counted)
    return calls


def _once_each(calls):
    # the recorded fans stay alive, so distinct fans have distinct ids
    return bool(calls) and set(Counter(map(id, calls)).values()) == {1}


def test_the_wall_certificate_runs_once_per_checked_fan(monkeypatch, tmp_path, capsys):
    calls = _count_certificates(monkeypatch)
    fan = fan_p2()
    build_context(fan)
    assert calls == [fan]

    calls.clear()
    clear_epq_memo()
    hodge_compact(fan, [simplex_support(2, 3)])
    assert calls[0] is fan and _once_each(calls)

    calls.clear()
    clear_epq_memo()
    epq_c_ci(TorusCIProblem(m=3, supports=(simplex_support(3, 2),)))
    assert _once_each(calls)

    calls.clear()
    doc = tmp_path / "p2.json"
    doc.write_text(json.dumps({"fan": {"rays": fan.rays, "max_cones": fan.maximal_cones}}))
    assert cli.main(["fan-check", str(doc)]) == 0
    assert capsys.readouterr().out == "complete simplicial regular\n"
    assert calls == [fan]


def test_validate_rejects_overlap_among_known_cones():
    # the cone cache holds geometry, not verdicts: a fan that reuses the rays
    # and cones of a valid fan still has every pair of cones checked
    for valid in (fan_p2(), fan_p3()):
        assert validate(valid).ok
        m = valid.dim
        inside = tuple(range(m - 1)) + (len(valid.rays),)  # inside cone(e_1..e_m)
        fan = Fan(m, valid.rays + ((1,) * m,), valid.maximal_cones + (inside,))
        report = validate(fan)
        assert not report.ok
        assert "common face" in report.first_violation


def test_cone_hrep_cache_matches_fresh_computation():
    import toric_hodge.fans as fans_mod

    pyramid = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])
    octahedron = convex_hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    corpus = [
        fan_p1(), fan_p2(), fan_p3(), fan_p1p1(), fan_p2p1(), fan_p3p1(), fan_p1p1p1(),
        fan_wps_1423(), fan_octahedron(), polygon_fan(8),
    ] + [simplicial_refinement(normal_fan(p, 3)) for p in (pyramid, octahedron)]
    cached = [(fan, cone, cone_hrep(fan, cone)) for fan in corpus for cone in all_cones(fan)]
    for fan, cone, hrep in cached:
        fans_mod._cone_hrep.cache_clear()
        assert cone_hrep(fan, cone) == hrep


# --- predicates --------------------------------------------------------------


@st.composite
def random_normal_fans(draw):
    """Normal fans of random full-dimensional polytopes in Z^2 and Z^3, some pulled."""
    dim = draw(st.integers(2, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                           min_size=dim + 1, max_size=8, unique=True))
    poly = convex_hull(points)
    assume(poly.dim == dim)
    fan = normal_fan(poly, dim)
    return simplicial_refinement(fan) if draw(st.booleans()) else fan


@given(random_normal_fans())
@settings(max_examples=60, deadline=None)
def test_simplicial_predicates_match_ranks(fan):
    # is_simplicial and cone_faces read independence off a cone's cached
    # H-representation (dim rays: no equality) or cached lattice (fewer
    # rays); check them against rank_of and enumerated facets
    ranks = [rank_of([fan.rays[i] for i in cone]) for cone in fan.maximal_cones]
    assert is_simplicial(fan) == all(r == len(c) for r, c in zip(ranks, fan.maximal_cones))
    for cone, rank in zip(fan.maximal_cones, ranks):
        faces = cone_faces(fan, cone)
        by_facets = cone_faces_by_facets([fan.rays[i] for i in cone])
        assert faces == {tuple(cone[i] for i in face) for face in by_facets}
        assert (len(faces) == 2 ** len(cone)) == (rank == len(cone))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_projective_fans_complete_regular(m):
    fan = fan_projective(m)
    assert validate(fan).ok
    assert is_complete(fan) and is_simplicial(fan) and is_regular(fan)


def test_weighted_fan_flags():
    fan = fan_wps_1423()
    assert validate(fan).ok
    assert is_complete(fan)
    assert is_simplicial(fan)
    assert not is_regular(fan)


def test_single_cone_not_complete():
    fan = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    assert validate(fan).ok
    assert not is_complete(fan)


def test_octahedron_fan_not_simplicial():
    fan = fan_octahedron()
    assert validate(fan).ok
    assert is_complete(fan)
    assert not is_simplicial(fan)


def test_regular_implies_simplicial_on_corpus():
    for fan in (fan_p1(), fan_p2(), fan_p3(), fan_p1p1(), fan_wps_1423(), fan_octahedron()):
        if is_regular(fan):
            assert is_simplicial(fan)


@st.composite
def simplicial_cones(draw):
    """k independent primitive rays in Z^dim, 1 <= k <= dim <= 4: rows of a
    random unimodular matrix (regular) or small random vectors."""
    dim = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=dim))
    if draw(st.booleans()):
        mat = unimodular_matrix(dim, random.Random(draw(st.integers(0, 10**6))), steps=10)
        return [tuple(row) for row in mat[:k]]
    entries = st.integers(min_value=-3, max_value=3)
    rays = draw(st.lists(st.tuples(*[entries] * dim), min_size=k, max_size=k))
    assume(maximal_minors_gcd(rays) != 0)
    return [tuple(x // gcd(*r) for x in r) for r in rays]


@given(simplicial_cones())
@settings(max_examples=200, deadline=None)
@example([(1, 0, 0), (1, 2, 0)])
@example([(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1)])
@example([(2, 1, 0), (1, 1, 1)])
def test_is_regular_matches_maximal_minors(rays):
    fan = Fan(len(rays[0]), tuple(rays), (tuple(range(len(rays))),))
    assert is_simplicial(fan)
    assert is_regular(fan) == (maximal_minors_gcd(rays) == 1)


# --- pulling refinement ------------------------------------------------------


def test_refinement_fixpoint_on_simplicial():
    fan = fan_p2()
    assert simplicial_refinement(fan) is fan


def test_refinement_cube_normal_fan():
    # the octant fan (normal fan of a cube) is already simplicial
    from itertools import product as iproduct

    cube = convex_hull(list(iproduct([0, 1], repeat=3)))
    fan = normal_fan(cube, 3)
    sub = simplicial_refinement(fan)
    assert sub is fan
    assert is_simplicial(sub) and is_complete(sub)


def test_refinement_cone_over_square():
    fan = Fan(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), ((0, 1, 2, 3),))
    sub = simplicial_refinement(fan)
    assert sub.rays == fan.rays
    assert sub.maximal_cones == ((0, 1, 2), (0, 2, 3))
    assert validate(sub).ok
    # support unchanged: sample points inside and outside
    inside = [(1, 0, 2), (0, 0, 5), (-1, -1, 3)]
    outside = [(0, 0, -1), (3, 0, 1)]
    for p in inside:
        assert any(cone_contains(sub, c, p) for c in sub.maximal_cones)
    for p in outside:
        assert not any(cone_contains(sub, c, p) for c in sub.maximal_cones)


def test_refinement_octahedron_fan():
    # each of the six square cones splits in two along a diagonal
    sub = simplicial_refinement(fan_octahedron())
    assert sub.rays == fan_octahedron().rays
    assert len(sub.maximal_cones) == 12
    assert validate(sub).ok and is_simplicial(sub) and is_complete(sub)


def test_refinement_pyramid_over_square():
    # the apex ray 4 is pulled last: the square base splits and the apex
    # cones over both halves
    fan = Fan(
        4,
        ((1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 1, 1)),
        ((0, 1, 2, 3, 4),),
    )
    assert validate(fan).ok
    sub = simplicial_refinement(fan)
    assert sub.maximal_cones == ((0, 1, 2, 4), (0, 2, 3, 4))
    assert validate(sub).ok


def test_refinement_adds_no_rays_in_dimension_5():
    pts = [(0, 0, 0, 3, 1), (0, 3, 0, 1, 3), (1, 0, 0, 3, 1), (1, 3, 2, 1, 2),
           (2, 2, 3, 2, 0), (2, 2, 3, 3, 1), (3, 3, 3, 2, 0)]
    fan = normal_fan(minkowski_support([pts]), 5)
    sub = simplicial_refinement(fan)
    assert sub.rays == fan.rays and len(sub.rays) == 12
    assert len(sub.maximal_cones) == 36
    assert validate(sub).ok and is_complete(sub)


@st.composite
def full_dimensional_polytopes(draw):
    # one support in dimension 4: the pulled fans of two such supports reach
    # about 200 cones, where the pairwise oracles of the wall-certificate
    # property below take seconds
    m = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(0, 2)] * m)
    supports = draw(
        st.lists(
            st.lists(point, min_size=m + 1, max_size=m + 3, unique=True),
            min_size=1,
            max_size=2 if m < 4 else 1,
        )
    )
    delta = minkowski_support(supports)
    assume(delta.dim == m)
    return delta


@given(full_dimensional_polytopes())
@settings(max_examples=80, deadline=None)
def test_refinement_of_normal_fans(delta):
    fan = normal_fan(delta, delta.dim)
    sub = simplicial_refinement(fan)
    assert sub.rays == fan.rays
    assert is_simplicial(sub) and is_complete(sub)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fans_mod, "_intersection_is_common_face", _no_pairwise_test)
        assert validate(fan).ok and validate(sub).ok
    for cone in sub.maximal_cones:
        assert any(set(cone) <= set(old) for old in fan.maximal_cones)


# --- the wall certificate of complete fans ------------------------------------


def _no_pairwise_test(*args):
    raise AssertionError("validate compared the cones of a complete fan in pairs")


def test_complete_fans_skip_the_pairwise_test(monkeypatch):
    monkeypatch.setattr(fans_mod, "_intersection_is_common_face", _no_pairwise_test)
    complete = [fan_projective(m) for m in (1, 2, 3)] + [
        fan_p1p1(), fan_p2p1(), fan_p3p1(), fan_p1p1p1(), fan_wps_1423(),
        fan_octahedron(), polygon_fan(8), polygon_fan(14),
    ]
    for fan in complete:
        assert validate(fan).ok and is_complete(fan)
    # the patch is on the path that incomplete fans take
    with pytest.raises(AssertionError, match="in pairs"):
        validate(Fan(2, fan_p2().rays, fan_p2().maximal_cones[:2]))


def _fan_of(dim, cones):
    """Fan with the given maximal cones, each a list of ray vectors."""
    rays = sorted({tuple(r) for cone in cones for r in cone})
    index = {r: i for i, r in enumerate(rays)}
    return Fan(dim, tuple(rays), tuple(tuple(index[tuple(r)] for r in c) for c in cones))


def _cone_vectors(fan):
    return [[fan.rays[i] for i in cone] for cone in fan.maximal_cones]


# polytopes with vertices in more than dim facets, so that their normal fans
# are not simplicial: octahedron, pyramid over a square, pyramid over an
# octahedron
_OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
_NON_SIMPLE = [
    _OCTAHEDRON,
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)],
    [q + (0,) for q in _OCTAHEDRON] + [(0, 0, 0, 1)],
]


@st.composite
def non_simple_polytopes(draw):
    """A polytope of `_NON_SIMPLE` in random lattice coordinates."""
    pts = draw(st.sampled_from(_NON_SIMPLE))
    rng = random.Random(draw(st.integers(0, 10**6)))
    mat = unimodular_matrix(len(pts[0]), rng, steps=3)
    return convex_hull([apply_matrix(mat, q) for q in pts])


@st.composite
def altered_normal_fans(draw):
    """A normal fan, pulled or not, as it is, without one maximal cone, with
    that cone alone, or with a simplicial cone flipped across a wall (one
    ray replaced by its negative)."""
    delta = draw(st.one_of(full_dimensional_polytopes(), non_simple_polytopes()))
    fan = normal_fan(delta, delta.dim)
    if draw(st.booleans()):
        fan = simplicial_refinement(fan)
    cones = _cone_vectors(fan)
    change = draw(st.sampled_from(["flip", "drop", "alone", "none"]))
    simplicial = [i for i, cone in enumerate(cones) if len(cone) == fan.dim]
    pool = simplicial if change == "flip" and simplicial else range(len(cones))
    i = draw(st.sampled_from(pool))
    if change == "drop":
        del cones[i]
    elif change == "alone":
        cones = [cones[i]]
    elif change == "flip" and simplicial:
        j = draw(st.integers(0, fan.dim - 1))
        cones[i][j] = tuple(-x for x in cones[i][j])
    return _fan_of(fan.dim, cones)


_DIRECTIONS = sorted(
    {primitive((x, y)) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)},
    key=lambda r: math.atan2(r[1], r[0]),
)


@st.composite
def polygon_coverings(draw):
    """Cones over the pairs (r_i, r_{i+step}) of rays in angle order: step 1
    gives a complete fan, step 2 covers the plane twice (one cycle for an odd
    number of rays, two interleaved polygons for an even one)."""
    rays = sorted(
        draw(st.sets(st.sampled_from(_DIRECTIONS), min_size=4, max_size=10)),
        key=_DIRECTIONS.index,
    )
    step = draw(st.sampled_from([1, 2]))
    cones = [[a, rays[(i + step) % len(rays)]] for i, a in enumerate(rays)]
    assume(all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in cones))  # each under a half-turn
    return _fan_of(2, cones)


@st.composite
def projective_fans_with_inner_cone(draw):
    """P^2 or P^3 plus the cone over m - 1 unit rays and a positive ray,
    which lies inside cone(e_1..e_m)."""
    m = draw(st.integers(2, 3))
    w = primitive(draw(st.tuples(*[st.integers(1, 3)] * m)))
    units = draw(st.permutations(range(m)))[: m - 1]
    inner = [tuple(int(i == j) for i in range(m)) for j in units] + [w]
    return _fan_of(m, _cone_vectors(fan_projective(m)) + [inner])


def _octagon_covering(step):
    """Cones over (r_i, r_{i+step}) of the 8 rays of `polygon_fan(8)`, each
    under a half-turn, covering the plane `step` times."""
    rays = polygon_fan(8).rays  # in angle order
    return _fan_of(2, [[rays[i], rays[(i + step) % 8]] for i in range(8)])


def _check_wall_certificate(fan):
    # validate keeps its verdict and message, and its `complete` is the
    # certificate; a cone listed twice (a flip can land on another cone) is
    # named before any pair of cones is compared
    cones = fan.maximal_cones
    repeats = tuple(f"cone {c} repeats an earlier maximal cone"
                    for i, c in enumerate(cones) if c in cones[:i])
    bad = first_bad_pair(fan)
    report = validate(fan)
    if repeats:
        assert report.problems == repeats
    elif bad is None:
        assert report.ok
    else:
        assert report.problems == (f"cones {bad[0]} and {bad[1]} do not meet in a common face",)
    assert is_complete(fan) == (bad is None and complete_by_ridges(fan))
    assert report.complete == (not repeats and bad is None and complete_by_ridges(fan))


@given(altered_normal_fans())
@settings(max_examples=80, deadline=None)
@example(fan_octahedron())
@example(_fan_of(3, _cone_vectors(fan_octahedron())[1:]))
@example(Fan(3, ((-1, 1, -1), (-1, 1, 1), (-1, 3, -1), (-1, 3, 1), (1, -3, -1), (1, -3, 1),
                 (1, -1, -1), (1, -1, 1)),
             ((0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 6), (0, 4, 5), (0, 4, 6), (0, 1, 3),
              (1, 5, 7), (2, 3, 7), (2, 6, 7), (4, 5, 7), (4, 6, 7))))  # a flip onto (0, 1, 3)
def test_wall_certificate_on_normal_fans(fan):
    _check_wall_certificate(fan)


@given(st.one_of(polygon_coverings(), projective_fans_with_inner_cone()))
@settings(max_examples=60, deadline=None)
@example(_octagon_covering(2))
@example(_octagon_covering(3))
@example(Fan(2, ((1, 0), (0, 1)), ((0, 1),)))
# every ray in two cones, (1, 1) in the first cone only, but the rays (1, 2)
# and (0, 1) each bound two cones on the same side
@example(_fan_of(2, [[(1, 0), (0, 1)], [(1, 2), (0, 1)], [(1, 2), (-2, -1)], [(-2, -1), (1, 0)]]))
def test_wall_certificate_on_overlapping_fans(fan):
    _check_wall_certificate(fan)


# --- supports, degrees, adaptedness ------------------------------------------


def test_degrees_p1_interval():
    fan = fan_p1()
    degs = degrees_of(fan, [[(q,) for q in range(4)]])
    assert degs == ((0, 3),)


def test_degrees_reject_bad_supports():
    with pytest.raises(ValueError, match="empty support set"):
        degrees_of(fan_p2(), [[(0, 0)], []])
    with pytest.raises(ValueError, match="fan dimension"):
        degrees_of(fan_p2(), [[(0, 0), (1, 0, 0)]])
    with pytest.raises(ValueError, match="fan dimension"):
        degrees_of(fan_p2(), [[(1,)]])


def test_degrees_singleton():
    fan = fan_p2()
    degs = degrees_of(fan, [[(2, 5)]])
    assert degs == ((-2, -5, 7),)


def test_degrees_weighted_row():
    fan = fan_wps_1423()
    from helpers import wps_support_1423

    degs = degrees_of(fan, [wps_support_1423(12)])
    assert degs == ((12, 0, 0, 0),)


def test_restrict_zero_cone_is_identity():
    fan = fan_p2()
    support = simplex_support(2, 3)
    assert restrict_supports(fan, (), [support]) == [tuple(sorted(support))]


def test_restrict_p1():
    fan = fan_p1()
    assert restrict_supports(fan, (0,), [[(0,), (1,)]]) == [((0,),)]


def test_restrict_empty_on_far_cone():
    fan = fan_p2()
    support = [(0, 0), (1, 0)]
    # the cone spanned by e1 and -e1-e2 sees no common minimizer
    assert restrict_supports(fan, (0, 2), [support]) == [()]


def test_restriction_monotone_under_faces():
    fan = fan_p2()
    support = simplex_support(2, 3)
    for cone in all_cones(fan):
        big = set(restrict_supports(fan, cone, [support])[0])
        for face in combinations(cone, max(len(cone) - 1, 0)):
            small = set(restrict_supports(fan, tuple(face), [support])[0])
            assert big <= small


_PAIRING_FANS = [fan_p2(), fan_p1p1(), fan_wps_1423(), fan_octahedron()]


@st.composite
def fans_with_supports(draw):
    fan = draw(st.sampled_from(_PAIRING_FANS))
    point = st.tuples(*[st.integers(-4, 4)] * fan.dim)
    supports = draw(st.lists(st.lists(point, min_size=1, max_size=8), min_size=1, max_size=3))
    return fan, supports


@given(fans_with_supports())
@settings(max_examples=120, deadline=None)
def test_degrees_and_restrictions_match_brute_force(case):
    fan, supports = case

    def pair(j, q):
        return sum(a * b for a, b in zip(fan.rays[j], q))

    lows = [[min(pair(j, q) for q in s) for j in range(len(fan.rays))] for s in supports]
    assert degrees_of(fan, supports) == tuple(tuple(-x for x in row) for row in lows)
    for cone in all_cones(fan):
        expected = [
            tuple(sorted({q for q in s if all(pair(j, q) == low[j] for j in cone)}))
            for s, low in zip(supports, lows)
        ]
        assert restrict_supports(fan, cone, supports) == expected


def test_restrict_rejects_bad_supports():
    with pytest.raises(ValueError, match="^empty support set$"):
        restrict_supports(fan_p2(), (0,), [[(0, 0)], []])
    with pytest.raises(ValueError, match="^support point length must match the fan dimension$"):
        restrict_supports(fan_p2(), (0, 1), [[(0, 0), (1, 0, 0)]])


def test_adapted_k0_everywhere():
    report = adapted_subfan(fan_p2(), [])
    assert report.whole_fan
    assert all(report.per_cone.values())


def test_adapted_full_support():
    report = adapted_subfan(fan_p2(), [simplex_support(2, 3)])
    assert report.whole_fan


def test_not_adapted_line_support():
    report = adapted_subfan(fan_p2(), [[(0, 0), (1, 0)]])
    assert not report.whole_fan
    assert report.per_cone[(0, 2)] is False


def test_normal_fan_refinement_is_adapted():
    rng = random.Random(5)
    for _ in range(10):
        supports = []
        for _ in range(rng.randint(1, 2)):
            pts = {
                (rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(2, 5))
            }
            supports.append(sorted(pts))
        poly = minkowski_support(supports)
        if poly.dim != 2:
            continue
        fan = simplicial_refinement(normal_fan(poly, 2))
        assert adapted_subfan(fan, supports).whole_fan


# --- normal fans -------------------------------------------------------------


def test_normal_fan_simplex_is_projective_plane():
    poly = convex_hull([(0, 0), (1, 0), (0, 1)])
    fan = normal_fan(poly, 2)
    assert sorted(fan.rays) == sorted(fan_p2().rays)
    assert is_complete(fan)


def test_normal_fan_square():
    poly = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    fan = normal_fan(poly, 2)
    assert sorted(fan.rays) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(fan.maximal_cones) == 4
    assert is_complete(fan)


def test_normal_fan_rejects_lower_dimensional():
    poly = convex_hull([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        normal_fan(poly, 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_normal_fan_of_unit_simplex_matches_projective(m):
    pts = [tuple(int(i == j) for i in range(m)) for j in range(m)] + [tuple([0] * m)]
    fan = normal_fan(convex_hull(pts), m)
    assert sorted(fan.rays) == sorted(fan_projective(m).rays)


# --- orbit problems ----------------------------------------------------------


def test_orbit_zero_cone_identity():
    fan = fan_p2()
    support = simplex_support(2, 3)
    prob = orbit_problem(fan, (), restrict_supports(fan, (), [support]))
    assert prob.m == 2
    assert prob.supports == (tuple(sorted(support)),)


def test_orbit_cubic_edge():
    fan = fan_p2()
    support = simplex_support(2, 3)
    prob = orbit_problem(fan, (0,), restrict_supports(fan, (0,), [support]))
    assert prob.m == 1
    assert prob.supports == (((0,), (1,), (2,), (3,)),)


def test_orbit_maximal_cone_is_point():
    fan = fan_p2()
    support = simplex_support(2, 3)
    prob = orbit_problem(fan, (0, 1), restrict_supports(fan, (0, 1), [support]))
    assert prob.m == 0
    assert all(s == ((),) for s in prob.supports)


def test_orbit_character_lattice_keeps_index():
    # quadric on projective 3-space, restricted to the cone <e1, -e1-e2-e3>:
    # the surviving points differ by (0,1,-1)-multiples; in the orbit's own
    # character lattice they read {0,1,2}, not the quotient-lattice {0,2,4}
    fan = fan_p3()
    support = simplex_support(3, 2)
    prob = orbit_problem(fan, (0, 3), restrict_supports(fan, (0, 3), [support]))
    assert prob.m == 1
    assert prob.supports == (((0,), (1,), (2,)),)


def test_orbit_drops_identically_vanishing_restrictions():
    # bidegree-(1,1) support on the product fan: on the cone <e1, e3> the
    # restriction is empty and the equation disappears from the orbit
    from helpers import fan_p2p1

    fan = fan_p2p1()
    support = [(1, 0, 0), (0, 1, 1)]
    cone = (0, 3)  # e1 together with e3
    assert restrict_supports(fan, cone, [support]) == [()]
    prob = orbit_problem(fan, cone, restrict_supports(fan, cone, [support]))
    assert prob.m == 1
    assert prob.supports == ()
