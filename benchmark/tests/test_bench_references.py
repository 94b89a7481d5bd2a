"""The reference checks accept known answers and reject perturbed ones.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import corpus  # noqa: E402
import references  # noqa: E402


def _perturbed_tables(entries):
    """Every table that differs from `entries` by one in a single cell."""
    for p, row in enumerate(entries):
        for q in range(len(row)):
            bad = copy.deepcopy(entries)
            bad[p][q] += 1
            yield bad


# --- published and classical values --------------------------------------------


def test_jacobian_ring_classical_values():
    assert references.jacobian_diamond((1,) * 5, 5)[1][2] == 101  # quintic threefold
    assert references.jacobian_diamond((1,) * 4, 4)[1][1] == 20  # quartic K3
    assert references.jacobian_diamond((1, 1, 1, 1, 2), 6)[2][1] == 103
    assert references.jacobian_diamond((1, 1, 2, 4), 8)[1][1] == 18
    assert references.jacobian_diamond((1,) * 3, 3) == [[1, 1], [1, 1]]  # plane cubic


def test_reid_list_has_95_weighted_k3_families():
    assert len(references.calabi_yau_weights(4, 66)) == 95


def test_quasi_smoothness_criterion():
    assert references.is_quasi_smooth((1, 1, 1, 1, 2), 6)
    # no degree-7 monomial is a power of x3 (weight 4) or x3 times one variable
    assert not references.is_quasi_smooth((1, 1, 1, 4), 7)


def test_euler_sequence_chi_on_projective_spaces():
    # chi(P^m, Omega^p) = (-1)^p; the quintic has chi(Omega^1) = h^{21} - h^{11}
    for m in (1, 2, 3):
        assert [references.chi_forms([(1,) * (m + 1)], [], "alt", p)
                for p in range(m + 1)] == [(-1) ** p for p in range(m + 1)]
    assert references.chi_forms([(1,) * 5], [(5,)], "alt", 1) == 100
    # Omega = O on an elliptic curve: chi vanishes for every power
    for kind in corpus.KINDS:
        assert references.chi_forms([(1,) * 3], [(3,)], kind, 2) == 0  # elliptic curve


def test_lefschetz_on_products():
    assert references.lefschetz_diamond([(1, 1)] * 3, [(2, 2, 2)])[1][1] == 20  # K3
    assert references.lefschetz_diamond([(1, 1, 1), (1, 1)], [(1, 1)])[1][1] == 2


def test_bkk_euler_numbers():
    assert references.bkk_euler_simplices(2, [1]) == -1  # P^1 minus three points
    assert references.bkk_euler_simplices(2, [3]) == -9
    assert references.bkk_euler_simplices(2, [1, 1]) == 1  # one point


def test_polygon_lattice_points():
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert references.polygon_lattice_points(square, [0, 0, 2, 3]) == 12
    assert references.polygon_lattice_points(square, [0, 0, -1, 0]) == 0


# --- every check rejects a perturbed answer ----------------------------------------


def _ops(workload):
    return corpus.build(workload, seed=7)["ops"]


def _diamond_output(op):
    entries = checks._diamond(checks._freeze(op["check"]))
    return {"kind": "hodge", "n": len(entries) - 1, "entries": copy.deepcopy(entries)}


@pytest.mark.parametrize("ref", ["published", "jacobian", "lefschetz"])
def test_diamond_checks_reject_perturbed_tables(ref):
    ops = [op for op in _ops("hodge-ci") + _ops("euler-ci")
           if op["check"]["kind"] == "diamond" and op["check"]["ref"] == ref]
    assert ops
    for op in ops[:3]:
        good = _diamond_output(op)
        assert checks.check(op, good, {}) is None
        for bad in _perturbed_tables(good["entries"]):
            assert checks.check(op, dict(good, entries=bad), {}) is not None
        assert checks.check(op, dict(good, n=good["n"] + 1), {}) is not None


def test_published_values_are_the_acceptance_suite_values():
    check = next(op["check"] for op in _ops("hodge-ci") if op["id"] == "p3p1_threefold")
    assert check["entries"][1][1] == 4


def test_torus_checks_reject_perturbed_tables():
    op = next(op for op in _ops("hodge-ci") if op["id"] == "torus2_3")
    good = {"kind": "compact", "n": 1, "entries": [[-8, -1], [-1, 1]]}
    assert checks.check(op, good, {}) is None
    for bad in _perturbed_tables(good["entries"]):
        assert checks.check(op, dict(good, entries=bad), {}) is not None
    assert checks.check(op, dict(good, kind="hodge"), {}) is not None


def test_chi_checks_reject_perturbed_values():
    ops = [op for op in _ops("euler-ci") if op["check"]["kind"] == "chi"]
    assert {op["check"]["chi_kind"] for op in ops} == set(corpus.KINDS)
    for op in ops:
        want = checks._chi_values(checks._freeze(op["check"]))
        good = {"kind": op["check"]["chi_kind"], "ps": list(range(len(want))),
                "values": list(want)}
        assert checks.check(op, good, {}) is None
        for i in range(len(want)):
            bad = list(want)
            bad[i] -= 1
            assert checks.check(op, dict(good, values=bad), {}) is not None


def test_hilbert_checks_reject_perturbed_values():
    ops = _ops("hilbert-polygon")
    by_id = {op["id"]: op for op in ops}
    nef = by_id["r12.nef"]
    points = references.polygon_lattice_points(nef["check"]["rays"], nef["check"]["t"])
    outputs = {"r12.nef": points, "r12.s": 5}
    assert checks.check(nef, points, outputs) is None
    assert checks.check(nef, points + 1, outputs) is not None
    for tag, good in (("nef_dual", points), ("s_dual", 5), ("s_shift", 5),
                      ("zero_shift", 1)):
        op = by_id["r12." + tag]
        assert checks.check(op, good, outputs) is None
        assert checks.check(op, good - 1, outputs) is not None


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.WORKLOADS:
        assert corpus.build(workload, 3) == corpus.build(workload, 3)
        assert corpus.build(workload, 3) != corpus.build(workload, 4)
