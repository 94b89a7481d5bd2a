"""Seeded corpora of the three workloads.

A corpus is plain JSON-able data: problem documents, fans for the direct
API calls, and an ordered list of operations, each with the check its
output must pass.  The same (workload, seed, smoke) always gives the same
corpus.  The seed draws the order of rays, cones, support points and
weights, the s-vectors of the Hilbert workload and a stratified sample of
the weighted hypersurface scan; none of these changes an invariant, so
every check is against a value that does not depend on the seed.  The
order of the operations is fixed: the program's process-wide caches make
the cost and the memory high-water mark of an operation depend on what ran
before it.

Nothing here imports toric_hodge.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import atan2, pi

import references

WORKLOADS = ("hodge-ci", "hilbert-polygon", "euler-ci")
KINDS = ("alt", "sym", "tensor")

# --- fans and supports --------------------------------------------------------


def block_fan(weights):
    """Rays and maximal cones of P(w) for w[0] == 1: p_0 = -(w_1..w_m), p_j = e_j."""
    m = len(weights) - 1
    rays = [tuple(-w for w in weights[1:])]
    rays += [tuple(int(i == j) for i in range(m)) for j in range(m)]
    cones = list(combinations(range(m + 1), m))
    return rays, cones


def product_fan(blocks):
    rays, cones, dim = [], [()], 0
    for weights in blocks:
        b_rays, b_cones = block_fan(weights)
        m = len(weights) - 1
        shift = len(rays)
        rays = [r + (0,) * m for r in rays] + [(0,) * dim + r for r in b_rays]
        cones = [a + tuple(i + shift for i in b) for a in cones for b in b_cones]
        dim += m
    return rays, cones


def block_support(weights, degree):
    """Exponents (a_1..a_m) with sum w_j a_j <= d: the degree-d monomials
    dehomogenized at the weight-1 variable x_0."""
    out = []

    def rec(i, prefix, left):
        if i == len(weights):
            out.append(tuple(prefix))
            return
        for a in range(left // weights[i] + 1):
            rec(i + 1, prefix + [a], left - a * weights[i])

    rec(1, [], degree)
    return out


def product_support(blocks, degrees):
    parts = [block_support(w, d) for w, d in zip(blocks, degrees)]
    return [sum(combo, ()) for combo in product(*parts)]


def simplex_support(m, d):
    return [q for q in product(range(d + 1), repeat=m) if sum(q) <= d]


def polygon_fan(n):
    """The test suite's complete 2-D fan with n rays (1, i) and (-1, -i)."""
    half = n // 2
    rays = [(1, i) for i in range(half)] + [(-1, -i) for i in range(half)]
    rays.sort(key=lambda r: atan2(r[1], r[0]) % (2 * pi))
    cones = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return rays, cones


# --- seeded presentation ---------------------------------------------------------
# The seed draws orders only.  Moving coordinates (a signed permutation of
# rays and supports together, translations of the supports) keeps every
# invariant but not the work: the orbit recursion and the lattice sweep
# depend on the coordinates, and in trial runs such moves changed the time
# of one (2,3)-CI diamond between 1.05 and 1.75 s and the peak memory of
# euler-ci between 73 and 94 MiB.


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def _present_fan(rng, rays, cones):
    """The fan with its rays and maximal cones listed in a seeded order."""
    order = _shuffled(rng, range(len(rays)))  # order[new] = old
    new_index = {old: new for new, old in enumerate(order)}
    new_cones = _shuffled(rng, [sorted(new_index[i] for i in c) for c in cones])
    return {"rays": [list(rays[old]) for old in order], "max_cones": new_cones}


def _present_supports(rng, supports):
    return [_shuffled(rng, [list(q) for q in s]) for s in supports]


def _fan_document(rng, blocks, supports):
    rays, cones = product_fan(blocks)
    return {"fan": _present_fan(rng, rays, cones),
            "supports": _present_supports(rng, supports)}


# --- hodge-ci --------------------------------------------------------------------

P1, P2, P3, P4, P5 = ((1,) * (m + 1) for m in range(1, 6))

# (name, factor weights, equation degrees per factor, explicit sparse supports)
HODGE_FAN_PROBLEMS = [
    # criterion 07 of the acceptance suite: published h^{11} = 4 and 2
    ("p3p1_threefold", [P3, P1], None, [
        [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)],
        [(1, 0, 0, 0), (0, 1, 0, 1)],
    ]),
    ("p2p1_sparse", [P2, P1], None, [[(1, 0, 0), (0, 1, 1)]]),
    ("p2p1_11", [P2, P1], [(1, 1)], None),
    ("p2p1_21", [P2, P1], [(2, 1)], None),
    ("p4_23", [P4], [(2,), (3,)], None),
    ("p4_5", [P4], [(5,)], None),
    ("p3_4", [P3], [(4,)], None),
    ("p1cubed_222", [P1, P1, P1], [(2, 2, 2)], None),
    ("wps1423_12", [(1, 4, 2, 3)], [(12,)], None),
]
PUBLISHED = {
    "p3p1_threefold": [[1, 0, 0], [0, 4, 0], [0, 0, 1]],
    "p2p1_sparse": [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
}
# torus complete intersections: (m, degrees of the simplex supports)
HODGE_TORUS_PROBLEMS = [
    (2, (1,)), (2, (3,)), (3, (2,)), (3, (3,)), (4, (1,)), (4, (2,)),
    (3, (2, 2)), (4, (1, 2)),
]
HODGE_SMOKE = (["p2p1_sparse", "p3_4"], [(2, (1,)), (3, (2,))])


def _diamond_check(blocks, degrees, published=None):
    """The reference for a Hodge diamond; `degrees` has one tuple per equation."""
    if published is not None:
        return {"kind": "diamond", "ref": "published", "entries": published}
    weights = blocks[0]
    if len(blocks) == 1 and len(degrees) == 1 and any(w != 1 for w in weights):
        return {"kind": "diamond", "ref": "jacobian", "weights": list(weights),
                "degree": degrees[0][0]}
    return {"kind": "diamond", "ref": "lefschetz", "blocks": [list(b) for b in blocks],
            "degrees": [list(d) for d in degrees]}


def hodge_ci(rng, smoke):
    fan_names, torus = (HODGE_SMOKE if smoke else
                        ([p[0] for p in HODGE_FAN_PROBLEMS], HODGE_TORUS_PROBLEMS))
    docs, ops = {}, []
    # torus problems first: the fan problems' boundary orbits include them,
    # and after those the process-wide memo would answer them for free
    for m, degrees in torus:
        name = f"torus{m}_" + "_".join(map(str, degrees))
        supports = [simplex_support(m, d) for d in degrees]
        docs[name] = {"dim": m, "supports": _present_supports(rng, supports)}
        ops.append({"id": name, "call": "cli", "argv": ["hodge-torus", "--json", "@" + name],
                    "check": {"kind": "torus", "m": m, "degrees": list(degrees)}})
    for name, blocks, degrees, sparse in HODGE_FAN_PROBLEMS:
        if name not in fan_names:
            continue
        supports = sparse or [product_support(blocks, d) for d in degrees]
        docs[name] = _fan_document(rng, blocks, supports)
        ops.append({"id": name, "call": "cli", "argv": ["hodge", "--json", "@" + name],
                    "check": _diamond_check(blocks, degrees, PUBLISHED.get(name))})
    return {"docs": docs, "fans": {}, "ops": ops}


# --- hilbert-polygon -------------------------------------------------------------


def _linear_shift(rays, u):
    return [r[0] * u[0] + r[1] * u[1] for r in rays]


def _nef_vector(rng, rays):
    """t_j = -min over a random lattice triangle of <p_j, v>: a nef divisor."""
    pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
    return [-min(r[0] * x + r[1] * y for x, y in pts) for r in rays]


def hilbert_polygon(rng, smoke):
    fans, ops = {}, []
    # (rays, whether to add the random s-vector and its relatives)
    plan = [(6, False)] if smoke else [(12, True), (14, False)]
    for n, with_random_s in plan:
        rays, cones = polygon_fan(n)
        fan = _present_fan(rng, rays, cones)
        rays = fan["rays"]
        name = f"r{n}"
        fans[name] = fan
        ops.append({"id": f"{name}.context", "call": "context", "fan": name,
                    "check": {"kind": "none"}})

        def h(tag, s, check):
            ops.append({"id": f"{name}.{tag}", "call": "h", "fan": name, "s": s,
                        "check": check})

        def dual(s):
            return [-1 - x for x in s]

        # Serre duality on a surface: H(s) = (-1)^2 H(-1-s)
        t = _nef_vector(rng, rays)
        h("nef", t, {"kind": "points", "rays": rays, "t": t})
        h("nef_dual", dual(t), {"kind": "equal", "other": f"{name}.nef"})
        if not with_random_s:
            continue
        s = [rng.randint(-2, 2) for _ in rays]
        # u != 0, so that the shifted vector is a new H evaluation, not a memo hit
        u = [rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(-3, 3)]
        shifted = [a + b for a, b in zip(s, _linear_shift(rays, u))]
        v = [rng.randint(-3, 3), rng.randint(-3, 3)]
        h("s", s, {"kind": "none"})
        h("s_dual", dual(s), {"kind": "equal", "other": f"{name}.s"})
        h("s_shift", shifted, {"kind": "equal", "other": f"{name}.s"})
        h("zero_shift", _linear_shift(rays, v), {"kind": "value", "value": 1})
    return {"docs": {}, "fans": fans, "ops": ops}


# --- euler-ci --------------------------------------------------------------------

# (name, weights of the ambient P(w), equation degrees)
EULER_PROBLEMS = [
    ("p4_10", P4, (10,)),
    ("p4_5", P4, (5,)),
    ("p5_33", P5, (3, 3)),
    ("w11112_6", (1, 1, 1, 1, 2), (6,)),
    ("w11114_8", (1, 1, 1, 1, 4), (8,)),
    ("w11125_10", (1, 1, 1, 2, 5), (10,)),
    ("w1124_8", (1, 1, 2, 4), (8,)),
]
EULER_SMOKE = ["w1124_8"]
SCAN_K3_BUCKETS = 12
SCAN_CY_BUCKETS = 4
SCAN_CY_MAX_DEGREE = 18


def _stratified_sample(rng, items, buckets):
    """One item from each of `buckets` runs of the list sorted by degree,
    so that every seed draws the same mix of small and large degrees."""
    items = sorted(items, key=lambda w: (sum(w), w))
    size = len(items) / buckets
    return [items[int(i * size) + rng.randrange(max(1, int(size)))] for i in range(buckets)]


def euler_ci(rng, smoke):
    names = EULER_SMOKE if smoke else [p[0] for p in EULER_PROBLEMS]
    docs, ops = {}, []
    for name, weights, degrees in EULER_PROBLEMS:
        if name not in names:
            continue
        block = [weights]
        supports = [block_support(weights, d) for d in degrees]
        docs[name] = _fan_document(rng, block, supports)
        docs[name + ".wps"] = {"weights": _shuffled(rng, weights), "degrees": list(degrees)}
        for kind in KINDS:
            check = {"kind": "chi", "chi_kind": kind, "blocks": [list(weights)],
                     "degrees": [[d] for d in degrees]}
            ops.append({"id": f"{name}.euler.{kind}", "call": "cli",
                        "argv": ["euler", "--json", "--kind", kind, "@" + name],
                        "check": check})
            ops.append({"id": f"{name}.wps_euler.{kind}", "call": "cli",
                        "argv": ["wps", "euler", "--json", "--kind", kind, "@" + name + ".wps"],
                        "check": check})
        ops.append({"id": f"{name}.wps_hodge", "call": "cli",
                    "argv": ["wps", "hodge", "--json", "@" + name + ".wps"],
                    "check": _diamond_check(block, [(d,) for d in degrees])})
    if smoke:
        picks = [(1, 1, 1, 3), (1, 1, 2, 2)]
    else:
        k3 = references.calabi_yau_weights(4, 66)
        cy = references.calabi_yau_weights(5, SCAN_CY_MAX_DEGREE)
        picks = (_stratified_sample(rng, k3, SCAN_K3_BUCKETS)
                 + _stratified_sample(rng, cy, SCAN_CY_BUCKETS))
    for weights in picks:
        name = "scan_" + "_".join(map(str, weights))
        docs[name] = {"weights": _shuffled(rng, weights), "degrees": [sum(weights)]}
        ops.append({"id": name, "call": "cli", "argv": ["wps", "hodge", "--json", "@" + name],
                    "check": _diamond_check([weights], [(sum(weights),)])})
    return {"docs": docs, "fans": {}, "ops": ops}


_BUILDERS = {"hodge-ci": hodge_ci, "hilbert-polygon": hilbert_polygon, "euler-ci": euler_ci}


def build(workload: str, seed: int, smoke: bool = False) -> dict:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, smoke)
