"""Golden-file and exit-code tests for the command line."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from functools import cache
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_hodge import cli
from toric_hodge.fans import normal_fan, simplicial_refinement
from toric_hodge.lattice import minkowski_support

from helpers import (
    fan_octahedron,
    fan_p1p1,
    fan_projective,
    fan_wps_1423,
    polygon_fan,
    simplex_support,
)
from oracles import brute_count

HERE = os.path.dirname(os.path.abspath(__file__))


def data(name):
    return os.path.join(HERE, "data", name)


def golden(name):
    with open(os.path.join(HERE, "golden", name), "r", encoding="utf-8") as fh:
        return fh.read()


GOLDEN_CASES = [
    (["fan-check", data("p2_cubic.json")], "fan_check_p2_cubic.txt"),
    (["fan-check", data("wps_1423_fan.json")], "fan_check_wps_1423.txt"),
    (["fan-check", "--json", data("p2_cubic.json")], "fan_check_p2_cubic.json"),
    (["euler", "--kind", "alt", data("p2_cubic.json")], "euler_alt_p2_cubic.txt"),
    (
        ["euler", "--kind", "alt", "--json", data("p3_quadric.json")],
        "euler_alt_p3_quadric.json",
    ),
    (
        ["euler", "--kind", "sym", "-p", "2", data("p3_quadric.json")],
        "euler_sym_p2_p3_quadric.txt",
    ),
    (
        ["euler", "--kind", "tensor", "-p", "2", data("p3_quadric.json")],
        "euler_tensor_p2_p3_quadric.txt",
    ),
    (["hodge", data("p2_cubic.json")], "hodge_p2_cubic.txt"),
    (["hodge", data("p3_quadric.json")], "hodge_p3_quadric.txt"),
    (["hodge", data("example334.json")], "hodge_example334.txt"),
    (["hodge", "--json", data("example334.json")], "hodge_example334.json"),
    (["hodge", data("p2_cubic_ref.json")], "hodge_p2_cubic_ref.txt"),
    (["hodge-torus", data("torus_line.json")], "hodge_torus_line.txt"),
    (["hodge-torus", "--json", data("torus_line.json")], "hodge_torus_line.json"),
    (["wps", "hodge", data("quintic.json")], "wps_hodge_quintic.txt"),
    (["wps", "hodge", "--json", data("k3.json")], "wps_hodge_k3.json"),
    (["wps", "euler", "--kind", "alt", data("quintic.json")], "wps_euler_quintic.txt"),
    (["wps", "euler", "--kind", "sym", "-p", "2", data("k3.json")], "wps_euler_sym_k3.txt"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == golden(expected)


JSON_CASES = [argv for argv, _ in GOLDEN_CASES if "--json" in argv]


@pytest.mark.parametrize("argv", JSON_CASES, ids=[" ".join(a[:2]) for a in JSON_CASES])
def test_json_round_trip_is_byte_stable(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    rendered = json.dumps(json.loads(out), sort_keys=True, separators=(", ", ": "))
    assert rendered + "\n" == out


def test_all_p_flag_matches_default(capsys):
    assert cli.main(["euler", "--all-p", data("p2_cubic.json")]) == 0
    explicit = capsys.readouterr().out
    assert cli.main(["euler", data("p2_cubic.json")]) == 0
    assert capsys.readouterr().out == explicit == golden("euler_alt_p2_cubic.txt")


def test_all_p_flag_matches_default_with_supports(capsys):
    # one support in dimension 3: p runs over 0 .. dim - 1, with or without --all-p
    for extra in ([], ["--json"]):
        assert cli.main(["euler", "--all-p", *extra, data("p3_quadric.json")]) == 0
        explicit = capsys.readouterr().out
        assert cli.main(["euler", *extra, data("p3_quadric.json")]) == 0
        assert capsys.readouterr().out == explicit
    assert explicit == golden("euler_alt_p3_quadric.json")


def test_hodge_torus_overdetermined_renders_empty(capsys):
    import tempfile

    doc = {"dim": 1, "supports": [[[0], [1]], [[0], [2]]]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        assert cli.main(["hodge-torus", path]) == 0
        assert capsys.readouterr().out == "[]\n"
    finally:
        os.unlink(path)


def test_exit_code_parse_error(capsys):
    assert cli.main(["fan-check", data("malformed.json")]) == 2
    assert cli.main(["hodge", data("does_not_exist.json")]) == 2


def test_exit_code_float_rejected(capsys):
    assert cli.main(["wps", "hodge", data("float_degrees.json")]) == 2


_P2 = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}
BOOLEAN_CASES = {
    "rays": (["fan-check"], {"fan": dict(_P2, rays=[[1, 0], [0, True], [-1, -1]])}),
    "max_cones": (["fan-check"], {"fan": dict(_P2, max_cones=[[0, 1], [1, 2], [0, True]])}),
    "supports": (["hodge"], {"fan": _P2, "supports": [[[0, 0], [True, 0]]]}),
    "dim": (["hodge-torus"], {"dim": True, "supports": [[[0], [1]]]}),
    "weights": (["wps", "hodge"], {"weights": [1, 1, True], "degrees": [3]}),
    "degrees": (["wps", "hodge"], {"weights": [1, 1, 1], "degrees": [True]}),
}


@pytest.mark.parametrize("field", BOOLEAN_CASES)
def test_exit_code_boolean_rejected(field, tmp_path, capsys):
    # JSON true is a Python bool, which isinstance counts as an int
    command, doc = BOOLEAN_CASES[field]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert "integer" in captured.err and captured.out == ""


@pytest.mark.parametrize("bad", [[1, True], [1, "2"], [1, [2]], [1, None], "12", 7, None])
def test_a_bad_point_deep_in_a_large_support_is_rejected(bad, tmp_path, capsys):
    # a support's points are type-checked by passes over the whole list, and
    # one bad entry among 1,001 points still gets the one message for entries
    points = [[i % 5, i % 7] for i in range(1000)]
    points.insert(997, bad)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"fan": _P2, "supports": [points]}))
    assert cli.main(["euler", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: support entry must be an array of integers\n"
    assert captured.out == ""


def test_exit_code_precondition(capsys):
    # a fan that is not complete cannot feed the Euler machinery
    assert cli.main(["euler", data("open_cone.json")]) == 3
    # wrong document shape for the command
    assert cli.main(["hodge", data("torus_line.json")]) == 3
    assert cli.main(["hodge-torus", data("quintic.json")]) == 3


def test_fan_caps_come_before_validation(tmp_path, capsys, monkeypatch):
    import toric_hodge.hilbert as hilbert_mod

    # cones from (0, 2, 1) over a convex chain of 25 rays: a fan, but not a
    # complete one, so validating it would compare all 276 pairs of cones
    rays = [[0, 2, 1]] + [[i, i * i, 1] for i in range(-12, 13)]
    cones = [[0, j, j + 1] for j in range(1, 25)]
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps({"fan": {"rays": rays, "max_cones": cones}, "supports": []}))

    def no_validation(fan):
        raise AssertionError("an oversized fan was validated")

    monkeypatch.setattr(hilbert_mod, "validate", no_validation)
    assert cli.main(["euler", str(doc)]) == 3
    assert "fan has 26 rays; the supported maximum is 24" in capsys.readouterr().err


def test_exit_code_negative_form_degree(capsys):
    for extra in ([], ["--json"]):
        assert cli.main(["euler", "-p", "-1", *extra, data("p2_cubic.json")]) == 3
        captured = capsys.readouterr()
        assert "negative form degree" in captured.err
        assert captured.out == ""


def test_parser_is_built_once():
    # the golden cases above dispatch every subcommand through this one parser
    assert cli.build_parser() is cli.build_parser()


def test_exit_code_internal_consistency(capsys, monkeypatch):
    import toric_hodge.hodge as hodge_mod

    row_sums = hodge_mod._open_row_sums

    def off_by_one(*args):
        return [v + (p == 0) for p, v in enumerate(row_sums(*args))]

    monkeypatch.setattr(hodge_mod, "_open_row_sums", off_by_one)
    hodge_mod.clear_epq_memo()
    code = cli.main(["hodge-torus", data("torus_line.json")])
    hodge_mod.clear_epq_memo()
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("duality: ") and "duality mismatch" in err


# inputs outside the documented scope that end in a consistency check, named
# first on stderr: P^1 x P^1 with a support its fan is not adapted to, and a
# conic in P(1,1,3), which is not quasi-smooth
NAMED_CHECKS = [
    ({"fan": {"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
              "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]]},
      "supports": [[[0, 0], [3, 3]]]}, ["hodge"], "nonnegativity",
     "negative Hodge number at (0, 0)"),
    ({"weights": [1, 1, 3], "degrees": [2]}, ["wps", "hodge"], "symmetry",
     "Hodge table is not symmetric"),
]


@pytest.mark.parametrize("doc,argv,check,message", NAMED_CHECKS, ids=["hodge", "wps"])
def test_exit_4_names_the_check(doc, argv, check, message, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*argv, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{check}: ") and message in captured.err
    assert captured.out == ""


def test_walk_budget_exits_3(capsys, monkeypatch):
    from toric_hodge import hilbert

    monkeypatch.setattr(cli, "_contexts", {})
    monkeypatch.setattr(hilbert, "MAX_WALK_EXTENSIONS", 1)
    assert cli.main(["euler", data("p2_cubic.json")]) == 3
    captured = capsys.readouterr()
    assert "MAX_WALK_EXTENSIONS" in captured.err and captured.out == ""


# Torus hypersurfaces whose pulled normal fans exceed the 24-cone cap of a
# Hilbert context: 16 rays and 28 maximal cones in (C*)^3, 14 rays and 40
# maximal cones in (C*)^4.  The normalized volumes of their Newton polytopes
# are the m-th finite differences of brute-force Ehrhart counts.
BEYOND_CONTEXT_CAPS = [
    (
        3,
        [[0, 0, 1], [0, 3, 1], [0, 3, 3], [1, 0, 3], [1, 1, 0],
         [1, 3, 2], [2, 0, 1], [2, 2, 0], [3, 1, 3], [3, 2, 0]],
        93,
    ),
    (
        4,
        [[0, 2, 1, 2], [0, 2, 2, 0], [1, 0, 2, 1], [1, 1, 0, 2],
         [1, 2, 1, 1], [2, 0, 1, 1], [2, 1, 0, 0]],
        18,
    ),
]


@pytest.mark.parametrize("m,support,volume", BEYOND_CONTEXT_CAPS, ids=["c3", "c4"])
def test_hodge_torus_beyond_the_context_caps(tmp_path, capsys, m, support, volume):
    delta = minkowski_support([support])
    ehrhart = [brute_count([(n, t * b) for n, b in delta.facets], m) for t in range(m + 1)]
    assert sum((-1) ** (m - t) * comb(m, t) * c for t, c in enumerate(ehrhart)) == volume
    assert len(simplicial_refinement(normal_fan(delta, m)).maximal_cones) > 24
    doc = tmp_path / "torus.json"
    doc.write_text(json.dumps({"dim": m, "supports": [support]}))
    assert cli.main(["hodge-torus", "--json", str(doc)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["n"] == m - 1
    assert sum(map(sum, table["entries"])) == (-1) ** (m - 1) * volume


def test_refined_fan_cap_fails_fast(capsys, monkeypatch):
    import toric_hodge.hodge as hodge_mod

    # the triangle's normal fan has three maximal cones
    monkeypatch.setattr(hodge_mod, "MAX_ORBIT_CONES", 2)
    hodge_mod.clear_epq_memo()
    code = cli.main(["hodge-torus", data("torus_line.json")])
    hodge_mod.clear_epq_memo()
    captured = capsys.readouterr()
    assert code == 3
    assert "refined normal fan has 3 maximal cones" in captured.err
    assert "the supported maximum is 2" in captured.err
    assert captured.out == ""


def _brute_torus_sums(m, supports):
    """Row sums of e_c of a generic system, and its Euler characteristic.

    Both come from brute-force counts L(c) of the lattice points of
    sum_i c_i Delta_i, each scanned on the box of its vertices.  The row
    sums follow Khovanskii's formula of `hodge._open_row_sums`; the Euler
    characteristic is Bernstein-Khovanskii's (-1)^(m-k) times the sum of
    the mixed volumes MV(Delta_1^a_1, .., Delta_k^a_k) over a >= 1 with
    |a| = m, each the mixed finite difference of L over c <= a.
    """
    k = len(supports)

    @cache
    def count(c):
        pts = [tuple(map(sum, zip(*(tuple(x * ci for x in q) for ci, q in zip(c, combo)))))
               for combo in product(*supports)]
        box = [(min(col), max(col)) for col in zip(*pts)]
        return brute_count(minkowski_support([pts]).facets, m, box)

    n = m - k
    mixed = [0] * (n + 1)
    for a in product(range(n + 1), repeat=k):
        if sum(a) <= n:
            for e in product((0, 1), repeat=k):
                c = tuple(x + y for x, y in zip(a, e))
                mixed[sum(a)] += (-1) ** (sum(a) + sum(e)) * count(c)
    rows = [(-1) ** (p + m) * sum(comb(m, p - j) * mixed[j] for j in range(p + 1))
            for p in range(n + 1)]
    volumes = 0
    for a in product(range(1, m + 1), repeat=k):
        if sum(a) == m:
            for c in product(*(range(x + 1) for x in a)):
                sign = (-1) ** (m - sum(c))
                volumes += sign * prod(comb(x, y) for x, y in zip(a, c)) * count(c)
    return rows, (-1) ** (m - k) * volumes


# Torus systems past caps of earlier designs, each with its refined cone count:
# the first two (12 and 27 facets) stopped at MAX_FM_PAIRS when every count
# eliminated the whole system (5.7 million and 0.55 million row pairs in one
# step), and the third has more than the 128 refined cones once allowed.
PAST_OLD_CAPS = [
    (
        5,
        [[[0, 0, 0, 3, 1], [0, 3, 0, 1, 3], [1, 0, 0, 3, 1], [1, 3, 2, 1, 2],
          [2, 2, 3, 2, 0], [2, 2, 3, 3, 1], [3, 3, 3, 2, 0]]],
        36,
        [[6, 0, 0, 0, 0], [0, -6, 0, 5, 0], [0, 0, 21, 0, 0], [0, 5, 0, -5, 0],
         [0, 0, 0, 0, 1]],
    ),
    (
        4,
        [[[1, 0, 1, 0], [2, 0, 2, 1], [2, 2, 2, 1], [2, 2, 2, 3], [3, 0, 0, 1], [3, 3, 3, 3]],
         [[0, 2, 0, 3], [1, 0, 1, 1], [1, 3, 0, 3], [3, 3, 0, 0]]],
        103,
        [[23, 21, 35], [21, 120, 0], [35, 0, 1]],
    ),
    (
        4,
        [[[0, 0, 3, 1], [0, 1, 0, 2], [1, 0, 0, 3], [2, 3, 0, 3], [2, 3, 2, 0], [3, 2, 3, 1]],
         [[0, 3, 1, 3], [1, 2, 0, 1], [2, 0, 0, 1], [3, 2, 2, 1]]],
        140,
        [[23, 3, 112], [3, 359, 0], [112, 0, 1]],
    ),
]


@pytest.mark.parametrize(
    "m,supports,cones,entries", PAST_OLD_CAPS,
    ids=["c5_hypersurface", "c4_27_facets", "c4_140_cones"],
)
def test_hodge_torus_past_old_caps(tmp_path, capsys, m, supports, cones, entries):
    delta = minkowski_support(supports)
    assert len(simplicial_refinement(normal_fan(delta, m)).maximal_cones) == cones
    rows, euler = _brute_torus_sums(m, supports)
    assert [sum(row) for row in entries] == rows
    assert sum(rows) == euler
    doc = tmp_path / "torus.json"
    doc.write_text(json.dumps({"dim": m, "supports": supports}))
    assert cli.main(["hodge-torus", "--json", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == entries


def test_orbit_cone_cap_fails_fast(tmp_path, capsys):
    import toric_hodge.hodge as hodge_mod

    # a 16-point hypersurface in (C*)^5 whose refined normal fan is past the cap
    support = [[0, 0, 0, 0, 3], [0, 0, 0, 2, 2], [0, 2, 1, 0, 3], [1, 0, 0, 0, 3],
               [1, 0, 0, 3, 2], [1, 0, 1, 3, 0], [1, 1, 0, 1, 2], [1, 1, 1, 0, 3],
               [1, 1, 1, 1, 0], [1, 1, 3, 1, 0], [1, 2, 2, 3, 0], [1, 2, 3, 2, 1],
               [2, 0, 3, 3, 0], [2, 1, 1, 0, 0], [3, 0, 1, 3, 1], [3, 2, 0, 3, 3]]
    doc = tmp_path / "torus.json"
    doc.write_text(json.dumps({"dim": 5, "supports": [support]}))
    hodge_mod.clear_epq_memo()
    start = time.perf_counter()
    code = cli.main(["hodge-torus", str(doc)])
    elapsed = time.perf_counter() - start
    hodge_mod.clear_epq_memo()
    captured = capsys.readouterr()
    assert code == 3
    assert "refined normal fan has 1078 maximal cones" in captured.err
    assert f"the supported maximum is {hodge_mod.MAX_ORBIT_CONES}" in captured.err
    assert hodge_mod.MAX_ORBIT_CONES == 1024
    assert captured.out == ""
    assert elapsed < 10


# (P^1)^3: Cl = Z^3, so its class terms grow like a power of p
P1_CUBED = {"fan": {
    "rays": [[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1]],
    "max_cones": [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
}}


@pytest.mark.parametrize("kind", ["tensor", "sym"])
def test_series_term_cap_fails_fast(kind, tmp_path, capsys):
    from toric_hodge.forms import MAX_SERIES_COORDS

    p = {"tensor": "80", "sym": "100"}[kind]
    doc = tmp_path / "p1_cubed.json"
    doc.write_text(json.dumps(P1_CUBED))
    start = time.perf_counter()
    code = cli.main(["euler", "--kind", kind, "-p", p, str(doc)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert elapsed < 10
    assert f"the supported maximum is {MAX_SERIES_COORDS}" in captured.err
    assert "series expansion" in captured.err
    assert captured.out == ""


def test_series_cap_counts_key_coordinates(tmp_path):
    # keys of the 24-ray polygon fan have 22 coordinates: a cap on terms
    # alone let this expansion grow to 456 MiB before it stopped
    from toric_hodge.forms import MAX_SERIES_COORDS

    fan = polygon_fan(24)
    doc = tmp_path / "polygon24.json"
    doc.write_text(json.dumps({"fan": {"rays": fan.rays, "max_cones": fan.maximal_cones}}))
    script = (
        "import resource, sys\n"
        "from toric_hodge.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", script, "euler", "--kind", "sym", "-p", "8", str(doc)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert elapsed < 10
    *message, maxrss_kib = proc.stderr.splitlines()
    assert int(maxrss_kib) < 150 * 1024
    assert f"the supported maximum is {MAX_SERIES_COORDS}" in message[-1]
    assert "key coordinates" in message[-1]
    assert proc.stdout == ""


@pytest.mark.parametrize("kind,p", [("tensor", 100), ("alt", 60), ("sym", 40)])
def test_quintic_fan_matches_the_residue_engine_at_high_p(kind, p, tmp_path, capsys, monkeypatch):
    # every class of the series lies in one coset of P^4 (L = 1): H is fitted
    # from 5 walks, where a walk per class took 52 s at tensor p = 100
    import toric_hodge.hilbert as hilbert_mod

    walks = []
    h = hilbert_mod.h_of_s
    monkeypatch.setattr(hilbert_mod, "h_of_s", lambda c, s: walks.append(s) or h(c, s))
    fan = fan_projective(4)
    doc = tmp_path / "quintic_fan.json"
    doc.write_text(json.dumps({"fan": {"rays": fan.rays, "max_cones": fan.maximal_cones},
                               "supports": [simplex_support(4, 5)]}))
    argv = ["euler", "--kind", kind, "-p", str(p), str(doc)]
    start = time.perf_counter()
    assert cli.main(argv) == 0
    elapsed = time.perf_counter() - start
    fan_out = capsys.readouterr().out
    assert len(walks) <= 5
    assert elapsed < 10
    wps_argv = ["wps", "euler", "--kind", kind, "-p", str(p), data("quintic.json")]
    assert cli.main(wps_argv) == 0
    assert fan_out == capsys.readouterr().out


def test_symmetric_forms_of_p1_squared_at_high_p(tmp_path, capsys):
    # Sym^p of the cotangent sheaf of P^1 x P^1 is the sum of the
    # O(-2i, -2(p - i)), so chi = sum_i (1 - 2i)(1 - 2(p - i))
    doc = tmp_path / "p1_squared.json"
    doc.write_text(json.dumps({"fan": {
        "rays": [[-1, 0], [1, 0], [0, -1], [0, 1]],
        "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]],
    }}))
    start = time.perf_counter()
    code = cli.main(["euler", "--kind", "sym", "-p", "240", str(doc)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert elapsed < 5
    expected = sum((1 - 2 * i) * (1 - 2 * (240 - i)) for i in range(241))
    assert expected == 9100401
    assert captured.out == f"p=240: {expected}\n"


@pytest.mark.parametrize("kind", ["tensor", "sym"])
def test_high_form_degree_on_the_cubic(kind, capsys):
    # the series in Z^r passed the term cap here; in class coordinates the
    # tensor series has 136,348 terms and the symmetric one 1,800.  On the
    # elliptic curve every Sym^p and tensor power of the cotangent sheaf is
    # trivial, so chi is 0.
    assert cli.main(["euler", "--kind", kind, "-p", "300", data("p2_cubic.json")]) == 0
    assert capsys.readouterr().out == "p=300: 0\n"


@pytest.mark.parametrize("kind", ["alt", "sym"])
def test_huge_form_degree_fails_before_building_factors(kind, capsys):
    # one term in each of the p + 1 slices already passes the cap, so this
    # fails before any slice is allocated
    from toric_hodge.forms import MAX_SERIES_COORDS

    start = time.perf_counter()
    code = cli.main(["euler", "--kind", kind, "-p", "3000000", data("p2_cubic.json")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert elapsed < 5
    assert f"the supported maximum is {MAX_SERIES_COORDS}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["alt", "sym", "tensor"])
def test_wps_form_degree_cap_fails_fast(kind, capsys):
    # alt at p = 1000 on this K3 was still running after 65 s
    from toric_hodge.wps import MAX_WPS_DEGREE

    start = time.perf_counter()
    code = cli.main(["wps", "euler", "--kind", kind, "-p", "1000", data("k3.json")])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert elapsed < 5
    assert f"the supported maximum is {MAX_WPS_DEGREE}" in captured.err
    assert captured.out == ""
    p = str(MAX_WPS_DEGREE)
    assert cli.main(["wps", "euler", "--kind", kind, "-p", p, data("k3.json")]) == 0


AT_THE_WPS_CAP = {  # chi at p = 100 on P(1,2,3,5,7,11)[29,17]
    "alt": -1,
    "sym": 46296192718,
    "tensor": 2176328833665173902100716805518458153299900376169816260,
}


@pytest.mark.parametrize("kind", sorted(AT_THE_WPS_CAP))
def test_wps_euler_at_the_degree_cap_is_fast(kind, capsys):
    # a budget of 1 s: multiplying written-out series took 1.6 s for alt and sym
    start = time.perf_counter()
    argv = ["wps", "euler", "--kind", kind, "-p", "100", data("wps_123571_29_17.json")]
    assert cli.main(argv) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == f"p=100: {AT_THE_WPS_CAP[kind]}\n"
    assert elapsed < 1


def test_wps_refuses_weights_that_are_not_well_formed(tmp_path, capsys):
    # gcd(3, 3) = 3; `wps hodge` used to exit 4 on an asymmetric table
    doc = tmp_path / "w343.json"
    doc.write_text(json.dumps({"weights": [3, 4, 3], "degrees": [8]}))
    for argv in (["wps", "hodge"], ["wps", "euler"], ["wps", "euler", "-p", "1"]):
        assert cli.main([*argv, str(doc)]) == 3
        captured = capsys.readouterr()
        assert "not well-formed" in captured.err
        assert captured.out == ""


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "exc,code,message",
    [
        (RuntimeError("refinement failed"), 4, "refinement failed"),
        (RecursionError("maximum recursion depth exceeded"), 3, "recursion depth"),
        (MemoryError(), 3, "memory"),
    ],
    ids=["runtime", "recursion", "memory"],
)
def test_exit_code_uncaught_failures(capsys, monkeypatch, exc, code, message):
    import toric_hodge.hodge as hodge_mod

    monkeypatch.setattr(hodge_mod, "simplicial_refinement", _raise(exc))
    hodge_mod.clear_epq_memo()
    result = cli.main(["hodge-torus", data("torus_line.json")])
    hodge_mod.clear_epq_memo()
    assert result == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_fan_check_reports_invalid(capsys):
    import tempfile

    doc = {"fan": {"rays": [[1, 0], [1, 0]], "max_cones": [[0, 1]]}, "supports": []}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        assert cli.main(["fan-check", path]) == 0
        assert capsys.readouterr().out.startswith("invalid:")
    finally:
        os.unlink(path)


def test_fan_check_json_names_a_repeated_maximal_cone(tmp_path, capsys):
    # P^2 with (0, 1) listed again as (1, 0): no cone is missing, but the
    # second copy is no new cone and the fan is invalid, not incomplete
    doc = tmp_path / "p2.json"
    doc.write_text(json.dumps({"fan": dict(_P2, max_cones=_P2["max_cones"] + [[1, 0]])}))
    assert cli.main(["fan-check", "--json", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "adapted": None, "complete": False, "problems": ["cone (0, 1) repeats an earlier maximal cone"],
        "regular": False, "simplicial": False, "valid": False,
    }
    assert cli.main(["hodge", str(doc)]) == 3
    assert "cone (0, 1) repeats an earlier maximal cone" in capsys.readouterr().err


def test_console_script_if_installed():
    exe = shutil.which("toric-hodge")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "hodge-torus", data("torus_line.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden("hodge_torus_line.txt")


def test_console_script_entry_point_runs_from_the_checkout(capsys):
    # the script that an install would put on PATH, read from pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    import importlib

    with open(os.path.join(HERE, os.pardir, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["toric-hodge"]
    module, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert main is cli.main
    assert main(["hodge-torus", data("torus_line.json")]) == 0
    assert capsys.readouterr().out == golden("hodge_torus_line.txt")


def test_euler_kinds_on_one_document_pair_its_supports_once(capsys):
    import toric_hodge.fans as fans_mod

    fans_mod._pairing_table.cache_clear()
    misses = []
    for kind in ("alt", "sym", "tensor"):
        assert cli.main(["euler", "--kind", kind, data("p3_quadric.json")]) == 0
        misses.append(fans_mod._pairing_table.cache_info().misses)
    capsys.readouterr()
    assert misses == [1, 1, 1]  # p3_quadric.json has one support


def test_euler_commands_on_one_fan_share_its_context(capsys, monkeypatch):
    import toric_hodge.hilbert as hilbert_mod

    monkeypatch.setattr(cli, "_contexts", {})
    builds, steps = [], []
    build, children = cli.build_context, hilbert_mod._children
    monkeypatch.setattr(cli, "build_context", lambda fan: builds.append(fan) or build(fan))
    monkeypatch.setattr(hilbert_mod, "_children", lambda *a: steps.append(a) or children(*a))
    shared = []
    for kind in ("alt", "sym", "tensor"):
        before = len(steps)
        assert cli.main(["euler", "--kind", kind, data("p3_quadric.json")]) == 0
        shared.append(capsys.readouterr().out)
        # the walks of H run only in the first command; the others hit the memo
        assert (len(steps) > before) == (kind == "alt")
    assert len(builds) == 1
    for kind, out in zip(("alt", "sym", "tensor"), shared):
        cli._contexts.clear()
        assert cli.main(["euler", "--kind", kind, data("p3_quadric.json")]) == 0
        assert capsys.readouterr().out == out
    assert len(builds) == 4


def test_context_table_evicts_the_least_recently_used_fan(monkeypatch):
    from toric_hodge.wps import wps_fan

    monkeypatch.setattr(cli, "_contexts", {})
    fans = [wps_fan((1, 1, k)) for k in range(1, cli.MAX_CONTEXTS + 3)]
    for fan in fans[: cli.MAX_CONTEXTS]:
        cli._context(fan)
    first = cli._context(fans[0])  # now the most recently used
    assert cli._context(fans[0]) is first
    cli._context(fans[cli.MAX_CONTEXTS])
    assert list(cli._contexts) == fans[2 : cli.MAX_CONTEXTS] + [fans[0], fans[cli.MAX_CONTEXTS]]
    cli._context(fans[cli.MAX_CONTEXTS + 1])
    assert len(cli._contexts) == cli.MAX_CONTEXTS
    assert fans[2] not in cli._contexts and fans[0] in cli._contexts


def test_failed_context_builds_are_not_kept(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_contexts", {})
    rays = [[0, 2, 1]] + [[i, i * i, 1] for i in range(-12, 13)]
    cones = [[0, j, j + 1] for j in range(1, 25)]
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps({"fan": {"rays": rays, "max_cones": cones}, "supports": []}))
    for _ in range(2):
        assert cli.main(["euler", str(doc)]) == 3
        assert "fan has 26 rays; the supported maximum is 24" in capsys.readouterr().err
    for _ in range(2):
        assert cli.main(["euler", data("open_cone.json")]) == 3
        assert "error:" in capsys.readouterr().err
    assert cli._contexts == {}


# --- fuzz: small random documents, well-formed and malformed ----------------

_FUZZ_FANS = [fan_projective(m) for m in (1, 2, 3)] + [
    fan_p1p1(), fan_wps_1423(), fan_octahedron(), polygon_fan(4), polygon_fan(6)
]
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def _points(dim):
    return st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=1, max_size=4)


@st.composite
def _fuzz_fan_doc(draw):
    if draw(st.booleans()):  # a complete fan, so the engines run
        fan = draw(st.sampled_from(_FUZZ_FANS))
        dim, rays, cones = fan.dim, list(map(list, fan.rays)), list(map(list, fan.maximal_cones))
    else:
        dim = draw(st.integers(0, 3))
        ray = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        rays = draw(st.lists(ray, min_size=1, max_size=6))
        index = st.integers(0, len(rays))  # one past the end is a missing ray
        cones = draw(st.lists(st.lists(index, max_size=dim + 1), max_size=6))
    supports = draw(st.lists(_points(dim), max_size=dim))
    return {"fan": {"rays": rays, "max_cones": cones}, "supports": supports}


_FUZZ_DOCS = {
    "fan": _fuzz_fan_doc(),
    "torus": st.integers(0, 3).flatmap(
        lambda m: st.fixed_dictionaries(
            {"dim": st.just(m), "supports": st.lists(_points(m), max_size=3)}
        )
    ),
    "wps": st.fixed_dictionaries(
        {
            "weights": st.lists(st.integers(-1, 5), max_size=5),
            "degrees": st.lists(st.integers(-1, 8), max_size=3),
        }
    ),
}


def _euler(*command):
    kinds = st.sampled_from(["alt", "sym", "tensor"])
    form_degree = st.just([]) | st.integers(-1, 4).map(lambda p: ["-p", str(p)])
    return st.builds(lambda kind, p: [*command, "--kind", kind, *p], kinds, form_degree)


_FUZZ_COMMANDS = {
    "fan": st.sampled_from([["fan-check"], ["hodge"]]) | _euler("euler"),
    "torus": st.just(["hodge-torus"]),
    "wps": st.just(["wps", "hodge"]) | _euler("wps", "euler"),
}
_FIELDS = ("fan", "rays", "max_cones", "supports", "dim", "weights", "degrees")


@st.composite
def _fuzz_cases(draw):
    shape = draw(st.sampled_from(sorted(_FUZZ_DOCS)))
    doc = draw(_FUZZ_DOCS[shape])
    # now and then: another shape's command, a junk field or a junk document
    command = draw(_FUZZ_COMMANDS[draw(st.sampled_from([shape] * 4 + sorted(_FUZZ_DOCS)))])
    damage = draw(st.sampled_from(("none",) * 6 + _FIELDS + ("document",)))
    if damage == "document":
        doc = draw(_JUNK)
    elif damage in ("rays", "max_cones"):
        if shape == "fan":
            doc["fan"][damage] = draw(_JUNK)
    elif damage != "none":
        doc[damage] = draw(_JUNK)
    return [*command, "--json"] if draw(st.booleans()) else command, doc


@given(_fuzz_cases())
@settings(max_examples=300, deadline=5000)
def test_fuzz_every_command_exits_cleanly(case):
    command, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, path])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert code == 0 or out.getvalue() == ""
