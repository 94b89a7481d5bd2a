"""Acceptance suite.

One test per acceptance criterion; every comparison is exact integer
equality.  Each test prints a single pass/fail line (visible with
`pytest tests/test_acceptance.py -v -s`).
"""

import functools
import json
import random

from toric_hodge.errors import ConsistencyError
from toric_hodge.fans import TorusCIProblem, degrees_of
from toric_hodge.forms import chi_alt, chi_alt_hilbert, chi_sym, chi_tensor
from toric_hodge.hilbert import build_context, chi_structure_sheaf, h_of_s
from toric_hodge.hodge import epq_c_ci, hodge_compact
from toric_hodge.wps import wps_chi, wps_fan, wps_hilbert, wps_hodge
from toric_hodge import cli

from helpers import (
    apply_matrix,
    fan_p1,
    fan_p1p1,
    fan_p2,
    fan_p2p1,
    fan_p3,
    fan_p3p1,
    fan_wps_1423,
    forms_fixture_corpus,
    product_support,
    simplex_support,
    unimodular_matrix,
)
from oracles import brute_h, chi_y_projective_ci
import test_cli


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:02d}] PASS  {desc}")

        return wrapper

    return deco


@criterion(1, "h_of_s equals the brute-force orbit-sum oracle on 4 fans x 200 s")
def test_criterion_01_hilbert_cross_check():
    rng = random.Random(2024)
    for fan in (fan_p1(), fan_p2(), fan_p1p1(), fan_wps_1423()):
        ctx = build_context(fan)
        for _ in range(200):
            s = tuple(rng.randint(-4, 4) for _ in range(ctx.r))
            assert h_of_s(ctx, s) == brute_h(fan, s), (fan.rays, s)


@criterion(2, "line bundles on the line: H(d, 0) = d + 1 for d in -5..5")
def test_criterion_02_line_bundles():
    ctx = build_context(fan_p1())
    for d in range(-5, 6):
        assert h_of_s(ctx, (d, 0)) == d + 1


@criterion(3, "series path equals nested-Hilbert path on the fixture corpus")
def test_criterion_03_dual_path_equality():
    corpus = forms_fixture_corpus()
    ks = {len(s) for _, _, s in corpus}
    ms = {f.dim for _, f, _ in corpus}
    assert len(corpus) >= 20 and {0, 1, 2} <= ks and {1, 2, 3} <= ms
    for name, fan, supports in corpus:
        ctx = build_context(fan)
        degs = degrees_of(fan, supports) if supports else []
        n = fan.dim - len(supports)
        for p in range(n + 2):
            assert chi_alt(ctx, degs, p) == chi_alt_hilbert(ctx, degs, p), (name, p)


@criterion(4, "form-type identities hold on every fixture")
def test_criterion_04_form_type_identities():
    for name, fan, supports in forms_fixture_corpus():
        ctx = build_context(fan)
        degs = degrees_of(fan, supports) if supports else []
        chi0 = chi_structure_sheaf(ctx, degs)
        assert chi_alt(ctx, degs, 0) == chi0, name
        assert chi_sym(ctx, degs, 0) == chi0, name
        assert chi_tensor(ctx, degs, 0) == chi0, name
        a1 = chi_alt(ctx, degs, 1)
        assert chi_sym(ctx, degs, 1) == a1 and chi_tensor(ctx, degs, 1) == a1, name
        assert chi_tensor(ctx, degs, 2) == chi_alt(ctx, degs, 2) + chi_sym(
            ctx, degs, 2
        ), name


@criterion(5, "residue path equals fan path for Hilbert values and form sheaves")
def test_criterion_05_residues_vs_fan():
    rng = random.Random(55)
    weight_systems = [(1, 1), (1, 1, 1), (1, 1, 1, 1, 1), (1, 4, 2, 3)]
    kind_fns = [("alt", chi_alt), ("sym", chi_sym), ("tensor", chi_tensor)]
    for w in weight_systems:
        fan = wps_fan(w)
        ctx = build_context(fan)
        r = len(w)
        for _ in range(50):
            s = tuple(rng.randint(-4, 4) for _ in range(r))
            assert wps_hilbert(w, s) == h_of_s(ctx, s), (w, s)
        for dlist in [[], [2], [3], [5], [12]]:
            rows = tuple((d,) + (0,) * (r - 1) for d in dlist)
            for kind, fn in kind_fns:
                for p in range(4):
                    assert wps_chi(w, dlist, p, kind) == fn(ctx, rows, p), (
                        w,
                        dlist,
                        kind,
                        p,
                    )


@criterion(6, "classical diamonds via both engines, against the chi_y oracle")
def test_criterion_06_classical_diamonds():
    cases = [
        (2, (3,), {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}),
        (3, (2,), {(1, 1): 2}),
        (4, (5,), {(1, 1): 1, (2, 1): 101}),
        (4, (2, 3), {(2, 0): 1, (1, 1): 20}),
    ]
    fans = {2: fan_p2(), 3: fan_p3(), 4: None}
    from helpers import fan_projective

    for m, degrees, expected_cells in cases:
        fan = fans[m] or fan_projective(m)
        weights = tuple([1] * (m + 1))
        via_wps = wps_hodge(weights, list(degrees))
        via_fan = hodge_compact(fan, [simplex_support(m, d) for d in degrees])
        assert via_wps.entries == via_fan.entries, (m, degrees)
        for (p, q), val in expected_cells.items():
            assert via_wps.get(p, q) == val, (m, degrees, p, q)
        # independent generating-function oracle for chi of the form sheaves
        oracle = chi_y_projective_ci(m, list(degrees))
        n = m - len(degrees)
        for p in range(n + 1):
            from_table = sum(
                (-1) ** q * via_fan.get(p, q) for q in range(n + 1)
            )
            assert from_table == oracle[p], (m, degrees, p)


@criterion(7, "product-fan fixtures reproduce the published Hodge numbers")
def test_criterion_07_paper_examples():
    surface = hodge_compact(fan_p2p1(), [((1, 0, 0), (0, 1, 1))])
    assert surface.entries == ((1, 0, 0), (0, 2, 0), (0, 0, 1))

    threefold_supports = [
        ((0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)),
        ((1, 0, 0, 0), (0, 1, 0, 1)),
    ]
    threefold = hodge_compact(fan_p3p1(), threefold_supports)
    assert threefold.get(1, 1) == 4
    assert threefold.entries == ((1, 0, 0), (0, 4, 0), (0, 0, 1))


@criterion(8, "torus engine: fixture value, invariance, duality check silent")
def test_criterion_08_torus_engine():
    triangle = ((0, 0), (1, 0), (0, 1))
    assert epq_c_ci(TorusCIProblem(2, [triangle])).entries == ((-2, 0), (0, 1))

    rng = random.Random(88)
    fixtures = [
        [triangle],
        [simplex_support(2, 2)],
        [triangle, ((0, 0), (1, 1))],
    ]
    transforms_done = 0
    try:
        for supports in fixtures:
            want = epq_c_ci(TorusCIProblem(2, supports)).entries
            budget = 50 if supports == [triangle] else 10
            for _ in range(budget):
                u = unimodular_matrix(2, rng)
                moved = []
                for s in supports:
                    t = (rng.randint(-5, 5), rng.randint(-5, 5))
                    moved.append(
                        [
                            tuple(a + b for a, b in zip(apply_matrix(u, q), t))
                            for q in s
                        ]
                    )
                rng.shuffle(moved)
                got = epq_c_ci(TorusCIProblem(2, moved)).entries
                assert got == want, (supports, u)
                transforms_done += 1
    except ConsistencyError as exc:  # pragma: no cover - must never happen
        raise AssertionError(f"internal duality assertion fired: {exc}")
    assert transforms_done >= 50


@criterion(9, "no equations: diagonal diamonds; Euler sums count maximal cones")
def test_criterion_09_no_equations():
    for fan in (fan_p1(), fan_p2(), fan_p3(), fan_p1p1(), fan_p2p1(), fan_wps_1423()):
        table = hodge_compact(fan, [])
        for p in range(table.size):
            for q in range(table.size):
                if p != q:
                    assert table.get(p, q) == 0
    from toric_hodge.fans import is_regular

    for fan in (fan_p1(), fan_p2(), fan_p3(), fan_p1p1(), fan_p2p1(), fan_p3p1()):
        assert is_regular(fan)
        ctx = build_context(fan)
        total = sum((-1) ** p * chi_alt(ctx, [], p) for p in range(fan.dim + 1))
        assert total == len(fan.maximal_cones)


@criterion(10, "CLI golden files and byte-stable machine output")
def test_criterion_10_cli(capsys):
    for argv, expected in test_cli.GOLDEN_CASES:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == test_cli.golden(expected), argv
    for argv in test_cli.JSON_CASES:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        again = json.dumps(json.loads(out), sort_keys=True, separators=(", ", ": "))
        assert again + "\n" == out
    assert cli.main(["fan-check", test_cli.data("malformed.json")]) == 2
    assert cli.main(["euler", test_cli.data("open_cone.json")]) == 3
    capsys.readouterr()
