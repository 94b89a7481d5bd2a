"""Fans as combinatorial objects, plus support/fan interaction.

A fan is stored by its primitive ray generators and its maximal cones; a
cone is just a sorted tuple of ray indices.  Structural predicates
(complete / simplicial / regular), simplicial refinement, restriction of
Newton-polytope supports to cones, adaptedness, degree vectors, and the
reduction of a support system to a torus orbit all live here.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, lru_cache
from itertools import combinations
from operator import mul

from .lattice import (
    Polytope,
    _double_description,
    cone_extreme_rays,
    det_int,
    dot,
    primitive,
    rank_of,
    row_lattice,
    vec_sub,
)

Cone = tuple  # sorted tuple of ray indices into the parent fan's ray list


class Fan(namedtuple("Fan", "dim rays maximal_cones")):
    """Complete combinatorial description of a fan in Z^dim.

    `rays` is a tuple of primitive integer vectors, `maximal_cones` a tuple
    of sorted index tuples.
    """

    __slots__ = ()

    def __new__(cls, dim, rays, maximal_cones):
        return super().__new__(
            cls, dim, tuple(map(tuple, rays)), tuple(tuple(sorted(c)) for c in maximal_cones)
        )

    def ray_matrix(self, cone):
        return [list(self.rays[i]) for i in cone]


class TorusCIProblem(namedtuple("TorusCIProblem", "m supports")):
    """A complete-intersection problem inside a torus (C*)^m.

    `supports` is a tuple of tuples of lattice points in Z^m.  Only the
    supports matter: all invariants computed downstream are those of a
    system with generic coefficients on these supports.
    """

    __slots__ = ()

    def __new__(cls, m, supports):
        supports = tuple(tuple(sorted(set(map(tuple, s)))) for s in supports)
        for s in supports:
            if not s:
                raise ValueError("empty support set in torus problem")
            for q in s:
                if len(q) != m:
                    raise ValueError("support point of wrong dimension")
        return super().__new__(cls, m, supports)

    @property
    def k(self):
        return len(self.supports)


# ---------------------------------------------------------------------------
# cone geometry


def cone_hrep(fan: Fan, cone: Cone):
    """H-representation of cone(rays): (equalities, inequalities).

    The cone is {x : e.x = 0 for all equalities, n.x >= 0 for all
    inequalities}; normals are primitive integer vectors.  Cached per ray
    vectors, so every fan that holds the same cone shares the answer.
    """
    return _hrep(fan, cone)[:2]


def _hrep(fan: Fan, cone: Cone):
    """`cone_hrep` plus the facets' tight sets: the k-th holds the positions
    in `cone` of the rays on which the k-th inequality is tight."""
    return _cone_hrep(fan.dim, tuple(tuple(fan.rays[i]) for i in cone))


@lru_cache(maxsize=65536)
def _cone_lattice(dim, rays):
    return row_lattice(rays, dim)


@lru_cache(maxsize=65536)
def _cone_hrep(dim, rays):
    """The facet normals of rays that span R^dim come straight from the double
    description; rays of lower rank are solved in a basis of their
    saturation, and the normals mapped back by U's first `rank` columns."""
    try:
        eqs, incidence = (), _double_description(rays, dim)
    except ValueError:  # rank below dim
        span = _cone_lattice(dim, rays)
        eqs = tuple(primitive(u) for u in span.kernel)
        reduced = _double_description([span.coord(r) for r in rays], span.rank)
        incidence = {primitive(tuple([sum(map(mul, row, a)) for row in span.right])): mask
                     for a, mask in reduced.items()}
    facets = sorted((n, tuple(i for i in range(len(rays)) if mask >> i & 1))
                    for n, mask in incidence.items())
    return eqs, tuple(n for n, _ in facets), tuple(t for _, t in facets)


def cone_contains(fan: Fan, cone: Cone, vector) -> bool:
    eqs, ineqs = cone_hrep(fan, cone)
    return all(dot(e, vector) == 0 for e in eqs) and all(
        dot(n, vector) >= 0 for n in ineqs
    )


def cone_facet_ray_sets(fan: Fan, cone: Cone):
    """Ray-index sets of the facets (maximal proper faces) of a cone."""
    if not cone:
        return []
    tights = _hrep(fan, cone)[2]
    out = []
    seen = set()
    for positions in tights:
        tight = tuple(cone[i] for i in positions)
        if tight not in seen:
            seen.add(tight)
            out.append(tight)
    if not tights:
        # the cone is a linear subspace only when invalid; the zero face
        out.append(())
    return out


def cone_faces(fan: Fan, cone: Cone):
    """All faces of a cone, each as a sorted tuple of ray indices."""
    cone = tuple(sorted(cone))
    if not cone:
        return {()}
    if _is_simplicial_cone(fan, cone):  # the faces are the subsets
        return {f for size in range(len(cone) + 1) for f in combinations(cone, size)}
    facets = [frozenset(f) for f in cone_facet_ray_sets(fan, cone)]
    closed = {frozenset(cone)}
    frontier = [frozenset(cone)]
    while frontier:
        nxt = []
        for face in frontier:
            for f in facets:
                inter = face & f
                if inter not in closed:
                    closed.add(inter)
                    nxt.append(inter)
        frontier = nxt
    return {tuple(sorted(f)) for f in closed}


def all_cones(fan: Fan):
    """Every cone of the fan (all faces of all maximal cones), sorted."""
    cones = set()
    for c in fan.maximal_cones:
        cones |= cone_faces(fan, c)
    return sorted(cones, key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# validation and predicates


class ValidationReport(
    namedtuple("ValidationReport", "ok problems complete", defaults=(False,))
):
    """`complete`: ok, and the wall certificate of `is_complete` held."""

    __slots__ = ()

    @property
    def first_violation(self):
        return self.problems[0] if self.problems else None


def validate(fan: Fan) -> ValidationReport:
    """Check the rays, each cone (one listed twice is named), and that the
    cones meet in common faces.

    A fan that passes the wall certificate of `is_complete` (every wall in
    two cones on opposite sides, one generic vector in one cone; DLRS ch. 4)
    is complete, and its report says so; only other fans have every pair of
    cones intersected.  A cone on independent rays is strongly convex, so
    only a cone with dependent rays has its constraints' rank tested, and
    a ray of it is redundant when the constraints tight at it (equalities
    included) have rank below dim - 1, i.e. it spans no edge (Ziegler,
    *Lectures on Polytopes*, sec. 2).
    """
    problems = []
    seen = set()
    for idx, ray in enumerate(fan.rays):
        if len(ray) != fan.dim:
            problems.append(f"ray {idx} has wrong dimension")
            continue
        if all(x == 0 for x in ray):
            problems.append(f"ray {idx} is zero")
            continue
        if primitive(ray) != tuple(ray):
            problems.append(f"ray {idx} is not primitive")
        if tuple(ray) in seen:
            problems.append(f"ray {idx} duplicates an earlier ray")
        seen.add(tuple(ray))
    if problems:
        return ValidationReport(False, tuple(problems))

    used, listed = set(), set()
    for cone in fan.maximal_cones:
        if len(set(cone)) != len(cone):
            problems.append(f"cone {cone} repeats a ray index")
            continue
        if any(i < 0 or i >= len(fan.rays) for i in cone):
            problems.append(f"cone {cone} has an out-of-range ray index")
            continue
        if frozenset(cone) in listed:
            problems.append(f"cone {cone} repeats an earlier maximal cone")
            continue
        listed.add(frozenset(cone))
        used.update(cone)
        # a cone on independent rays is strongly convex and has no redundant ray
        if not _is_simplicial_cone(fan, cone):
            eqs, ineqs = cone_hrep(fan, cone)
            if rank_of(eqs + ineqs) < fan.dim:
                problems.append(f"cone {cone} is not strongly convex")
                continue
            for i in cone:
                tight = [n for n in eqs + ineqs if dot(n, fan.rays[i]) == 0]
                if rank_of(tight) < fan.dim - 1:
                    problems.append(f"ray {i} is redundant in cone {cone}")
    if problems:
        return ValidationReport(False, tuple(problems))

    missing = set(range(len(fan.rays))) - used
    if missing:
        problems.append(f"rays {sorted(missing)} appear in no maximal cone")
        return ValidationReport(False, tuple(problems))

    if is_complete(fan):
        return ValidationReport(True, (), complete=True)
    for ca, cb in combinations(fan.maximal_cones, 2):
        if not _intersection_is_common_face(fan, ca, cb):
            problem = f"cones {ca} and {cb} do not meet in a common face"
            return ValidationReport(False, (problem,))
    return ValidationReport(True, ())


def _intersection_is_common_face(fan: Fan, ca: Cone, cb: Cone) -> bool:
    eqs_a, ine_a = cone_hrep(fan, ca)
    eqs_b, ine_b = cone_hrep(fan, cb)
    normals = []
    for e in eqs_a + eqs_b:
        normals.append(tuple(e))
        normals.append(tuple(-x for x in e))
    normals.extend(ine_a)
    normals.extend(ine_b)
    try:
        inter_rays = cone_extreme_rays(normals, fan.dim)
    except ValueError:
        return False  # intersection contains a line: impossible for valid fans
    for cone in (ca, cb):
        if not _is_face_of(fan, cone, inter_rays):
            return False
    return True


def _is_face_of(fan: Fan, cone: Cone, sub_rays) -> bool:
    """Is cone(sub_rays) a face of the fan cone `cone`?"""
    for r in sub_rays:
        if not cone_contains(fan, cone, r):
            return False
    z = [sum(r[j] for r in sub_rays) for j in range(fan.dim)]  # 0 when there are none
    _, ineqs = cone_hrep(fan, cone)
    tight = [n for n in ineqs if dot(n, z) == 0]
    face_members = [
        i for i in cone if all(dot(n, fan.rays[i]) == 0 for n in tight)
    ]
    face_set = {tuple(fan.rays[i]) for i in face_members}
    return face_set == {tuple(r) for r in sub_rays}


def _is_simplicial_cone(fan: Fan, cone: Cone) -> bool:
    """Are the cone's rays linearly independent?  Read from the cached
    H-representation of `dim` rays (no equality) or lattice of fewer."""
    if len(cone) >= fan.dim:  # more than dim rays never are
        return len(cone) == fan.dim and not _hrep(fan, cone)[0]
    return _cone_lattice(fan.dim, tuple(fan.rays[i] for i in cone)).rank == len(cone)


def is_simplicial(fan: Fan) -> bool:
    return all(_is_simplicial_cone(fan, c) for c in fan.maximal_cones)


def is_regular(fan: Fan) -> bool:
    """Simplicial with every cone's rays extendable to a lattice basis.

    Independent rays extend to a basis of Z^dim exactly when they are a
    basis of their saturation, i.e. when their saturation coordinates form
    a unimodular matrix.
    """
    if not is_simplicial(fan):
        return False
    for cone in fan.maximal_cones:
        rays = fan.ray_matrix(cone)
        span = row_lattice(rays, fan.dim)
        if abs(det_int([span.coord(r) for r in rays])) != 1:
            return False
    return True


def is_complete(fan: Fan) -> bool:
    """Do the maximal cones form a complete fan?  The wall certificate.

    Full-dimensional cones form a complete fan iff every wall (facet of a
    maximal cone) lies in exactly two of them, on opposite sides, and one
    generic vector lies in exactly one of them (De Loera-Rambau-Santos,
    *Triangulations*, 2010, ch. 4).  A wall is keyed by its ray indices,
    read off the cone's facet incidences (`_hrep`); the vector is the sum
    of the first cone's rays, interior to that cone.
    """
    walls = {}
    for cone in fan.maximal_cones:
        eqs, ineqs, tights = _hrep(fan, cone)
        if eqs:
            return False
        for n, positions in zip(ineqs, tights):
            walls.setdefault(tuple(cone[i] for i in positions), []).append(n)
    if any(len(ns) != 2 or ns[0] != tuple(-x for x in ns[1]) for ns in walls.values()):
        return False
    if not fan.maximal_cones:
        return fan.dim == 0
    first, *others = fan.maximal_cones
    v = tuple(map(sum, zip(*(fan.rays[i] for i in first))))
    return not any(cone_contains(fan, cone, v) for cone in others)


# ---------------------------------------------------------------------------
# normal fan and simplicial refinement


def normal_fan(poly: Polytope, ambient_dim: int) -> Fan:
    """Complete fan dual to a full-dimensional polytope.

    The maximal cone attached to a vertex v consists of the directions p
    whose minimum over the polytope is attained at v; its generators are the
    inward facet normals tight at v.
    """
    if poly.dim != ambient_dim or poly.ambient_dim != ambient_dim:
        raise ValueError("normal fan requires a full-dimensional polytope")
    facets = list(poly.facets)
    rays = tuple(primitive(n) for n, _ in facets)
    cones = []
    for v in poly.vertices:
        tight = tuple(
            sorted(i for i, (n, b) in enumerate(facets) if dot(n, v) == b)
        )
        cones.append(tight)
    return Fan(dim=ambient_dim, rays=rays, maximal_cones=tuple(sorted(set(cones))))


def simplicial_refinement(fan: Fan) -> Fan:
    """Pulling refinement along the ray order: same rays, same support.

    A simplicial face stays as it is.  A non-simplicial face with lowest ray
    index v becomes the cones v + s, where s runs over the pieces of each
    facet of the face that misses v.  A face shared by two cones gets the
    same pieces in both, so the result is a fan (De Loera-Rambau-Santos,
    *Triangulations*, ch. 4).  A simplicial fan comes back as the same object.
    """
    if is_simplicial(fan):
        return fan

    @cache
    def pieces(face):
        if _is_simplicial_cone(fan, face):
            return (face,)
        v = face[0]
        return tuple(
            (v,) + s
            for facet in cone_facet_ray_sets(fan, face)
            if v not in facet
            for s in pieces(facet)
        )

    cones = {s for cone in fan.maximal_cones for s in pieces(cone)}
    return Fan(dim=fan.dim, rays=fan.rays, maximal_cones=tuple(sorted(cones)))


# ---------------------------------------------------------------------------
# supports, degrees, adaptedness, orbit reduction


def degrees_of(fan: Fan, supports) -> tuple:
    """d[i][j] = -min over the i-th support of the pairing with ray j: one
    tuple of ints per support."""
    return tuple(
        tuple(d for d, _ in _pairing_table(fan.dim, fan.rays, tuple(map(tuple, s))))
        for s in supports
    )


def restrict_supports(fan: Fan, cone: Cone, supports):
    """Facial restriction: points attaining the minimum on every ray of the cone."""
    out = []
    for s in supports:
        s = tuple(map(tuple, s))
        table = _pairing_table(fan.dim, fan.rays, s)
        out.append(tuple(sorted(set(s).intersection(*(table[j][1] for j in cone)))))
    return out


@lru_cache(maxsize=4096)
def _pairing_table(dim, rays, support):
    """Per ray: (d, the points q of `support` with <ray, q> = -d), d = -min.

    The support is read by columns, and a ray adds c times a column only
    for its nonzero coordinates c.
    """
    if not support:
        raise ValueError("empty support set")
    if any(len(q) != dim for q in support):
        raise ValueError("support point length must match the fan dimension")
    columns = tuple(zip(*support))
    table = []
    for ray in rays:
        pairings = [0] * len(support)  # <ray, q> for every q in support
        for c, column in zip(ray, columns):
            if c:
                pairings = [v + c * x for v, x in zip(pairings, column)]
        low = min(pairings)
        table.append((-low, frozenset(q for q, v in zip(support, pairings) if v == low)))
    return tuple(table)


AdaptedSubfan = namedtuple("AdaptedSubfan", "per_cone whole_fan")  # per_cone: cone -> bool


def adapted_subfan(fan: Fan, supports) -> AdaptedSubfan:
    """Cones on which every restricted support stays nonempty.

    Such cones always form a subfan because restriction only grows when
    passing to a face.  The whole fan is adapted exactly when all maximal
    cones are.
    """
    per_cone = {}
    for cone in all_cones(fan):
        restricted = restrict_supports(fan, cone, supports)
        per_cone[cone] = all(len(r) > 0 for r in restricted)
    whole = all(per_cone[c] for c in fan.maximal_cones)
    return AdaptedSubfan(per_cone=per_cone, whole_fan=whole)


def orbit_problem(fan: Fan, cone: Cone, restricted) -> TorusCIProblem:
    """A support system on the torus orbit of a cone.

    `restricted` holds the supports' facial restrictions to the cone
    (`restrict_supports`); those that vanish identically (empty) impose no
    condition on the orbit and are dropped.  Surviving supports are
    translated into the orbit's character lattice, i.e. the sublattice of
    Z^m orthogonal to the cone's rays, expressed in an integral basis.  The
    result is a torus problem of dimension m - dim(cone).
    """
    cone = tuple(sorted(cone))
    survivors = [s for s in restricted if s]
    if not cone:
        return TorusCIProblem(m=fan.dim, supports=tuple(survivors))
    span = _cone_lattice(fan.dim, tuple(tuple(fan.rays[i]) for i in cone))
    reduced = []
    for s in survivors:
        base = min(s)
        coords = sorted(span.kernel_coord(vec_sub(q, base)) for q in s)
        rebase = coords[0]
        reduced.append(tuple(vec_sub(c, rebase) for c in coords))
    return TorusCIProblem(m=fan.dim - span.rank, supports=tuple(reduced))
