"""The record types: construction, normalisation, validation, equality,
hashing, immutability and copying, the same for every record."""

import copy

import pytest

from toric_hodge.cli import ProblemDocument
from toric_hodge.fans import (
    AdaptedSubfan,
    Fan,
    TorusCIProblem,
    ValidationReport,
)
from toric_hodge.hodge_tables import EPQTable
from toric_hodge.lattice import AffineReduction, Polytope, RowLattice, row_lattice
from toric_hodge.wps import Weights, wps_chi, wps_chi_all, wps_hodge

_LINE = row_lattice([(1, 1)], 2)  # the span of (1, 1) in Z^2

# name -> (class, fields in order, the fields as stored where normalised,
#          a call that each existing ValueError comes from, with its message)
RECORDS = {
    "Fan": (
        Fan,
        {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "maximal_cones": [[1, 0], (2, 1), [2, 0]]},
        {"rays": ((1, 0), (0, 1), (-1, -1)), "maximal_cones": ((0, 1), (1, 2), (0, 2))},
        [],
    ),
    "TorusCIProblem": (
        TorusCIProblem,
        {"m": 2, "supports": [[[1, 0], (0, 0), [1, 0]], [(0, 1), (0, 0)]]},
        {"supports": (((0, 0), (1, 0)), ((0, 0), (0, 1)))},
        [
            (lambda: TorusCIProblem(2, [[(0, 0)], []]), "empty support set in torus problem"),
            (lambda: TorusCIProblem(2, [[(0, 0), (1,)]]), "support point of wrong dimension"),
        ],
    ),
    "ValidationReport": (
        ValidationReport, {"ok": False, "problems": ("ray 0 is zero",), "complete": False}, {}, []
    ),
    "AdaptedSubfan": (AdaptedSubfan, {"per_cone": {(0,): True}, "whole_fan": True}, {}, []),
    "RowLattice": (
        RowLattice,
        {f: getattr(_LINE, f) for f in ("dim", "rank", "right", "right_inverse", "kernel")},
        {},
        [
            (lambda: _LINE.coord((1, 0)), "vector outside the rational span"),
        ],
    ),
    "Polytope": (
        Polytope,
        {"vertices": ((0,), (1,)), "facets": (((1,), 0), ((-1,), -1)), "dim": 1, "ambient_dim": 1},
        {},
        [],
    ),
    "AffineReduction": (AffineReduction, {"rank": 1, "supports": (((0,), (1,)),)}, {}, []),
    "EPQTable": (
        EPQTable,
        {"entries": [[1, 0], (0, 1)], "kind": "hodge"},
        {"entries": ((1, 0), (0, 1))},
        [
            (lambda: EPQTable(((1,),), "diamond"), "unknown table kind 'diamond'"),
            (lambda: EPQTable(((1, 0),), "hodge"), "table must be square"),
        ],
    ),
    "Weights": (
        Weights,
        {"values": [1, 1, 2]},
        {"values": (1, 1, 2)},
        [
            (lambda: Weights(()), "weights must be positive integers"),
            (lambda: Weights((0, 1)), "weights must be positive integers"),
            (lambda: Weights((2, 4)), "weights must be globally coprime"),
        ],
    ),
    "ProblemDocument": (
        ProblemDocument,
        dict(kind="wps", fan=None, supports=(), dim=None, weights=(1, 1), degrees=(2,)),
        {},
        [],
    ),
}

# defaults of the fields that have one
DEFAULTS = {
    "ValidationReport": {"complete": False},
    "ProblemDocument": {"fan": None, "supports": (), "dim": None, "weights": (), "degrees": ()},
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    cls, fields, stored, errors = RECORDS[name]
    by_keyword = cls(**fields)
    assert cls(*fields.values()) == by_keyword
    for field, value in fields.items():
        assert getattr(by_keyword, field) == stored.get(field, value)
    assert repr(by_keyword).startswith(f"{name}(")

    for make, message in errors:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    twin = cls(**copy.deepcopy(fields))
    assert twin == by_keyword and twin is not by_keyword
    if name != "AdaptedSubfan":  # its per_cone is a dict, so it has no hash
        assert hash(twin) == hash(by_keyword)

    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, None)

    clone = copy.deepcopy(by_keyword)
    assert type(clone) is cls and clone == by_keyword

    defaults = DEFAULTS.get(name, {})
    required = {f: v for f, v in fields.items() if f not in defaults}
    assert cls(**required) == cls(**required, **defaults)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Weights((1.5, 2, 3)), "weights must be positive integers"),
        (lambda: Weights((True, 1, 1)), "weights must be positive integers"),
        (lambda: wps_hodge([1.9, 1, 1], [3]), "weights must be positive integers"),
        (lambda: wps_hodge([1, 1, 1], [3.0]), "degrees must be integers"),
        (lambda: wps_chi((1, 1, 1), [2.5], 1, "alt"), "degrees must be integers"),
        (lambda: wps_chi_all((1, 1, 1), [True], "sym", 1), "degrees must be integers"),
        (lambda: EPQTable(((2.7,),), "hodge"), "table entries must be integers"),
        (lambda: EPQTable(((1, 0), (0, True)), "hodge"), "table entries must be integers"),
    ],
    ids=["weight", "bool-weight", "wps-hodge-weight", "wps-hodge-degree", "wps-chi-degree",
         "bool-degree", "table-entry", "bool-table-entry"],
)
def test_non_integer_input_is_rejected_not_truncated(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
