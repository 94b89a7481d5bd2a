"""Checks of the program's outputs against the independent references.

`check(op, output, outputs)` returns None when the output of one operation
is right, or a one-line reason when it is not.  `outputs` maps operation
ids to outputs of the same round, for relations between operations (Serre
duality, linear equivalence).  Reference values are cached per problem, so
checking many rounds costs one computation.
"""

from __future__ import annotations

import json
from functools import lru_cache

import references


def _freeze(obj):
    return json.dumps(obj, sort_keys=True)


@lru_cache(maxsize=None)
def _diamond(frozen_check: str):
    c = json.loads(frozen_check)
    if c["ref"] == "published":
        return c["entries"]
    if c["ref"] == "jacobian":
        if not references.is_quasi_smooth(c["weights"], c["degree"]):
            raise ValueError(f"reference needs a quasi-smooth hypersurface: {c}")
        return references.jacobian_diamond(c["weights"], c["degree"])
    return references.lefschetz_diamond(
        [tuple(b) for b in c["blocks"]], [tuple(d) for d in c["degrees"]])


@lru_cache(maxsize=None)
def _chi_values(frozen_check: str):
    c = json.loads(frozen_check)
    blocks = [tuple(b) for b in c["blocks"]]
    degrees = [tuple(d) for d in c["degrees"]]
    n = references.ci_dimension(blocks, degrees)
    return [references.chi_forms(blocks, degrees, c["chi_kind"], p) for p in range(n + 1)]


def _check_diamond(c, out):
    want = _diamond(_freeze(c))
    n = len(want) - 1
    if out.get("kind") != "hodge" or out.get("n") != n or out.get("entries") != want:
        return f"diamond {out} != reference {want}"
    return None


def _check_torus(c, out):
    entries = out.get("entries")
    if out.get("kind") != "compact" or out.get("n") != c["m"] - len(c["degrees"]):
        return f"unexpected torus table header {out}"
    if any(entries[p][q] != entries[q][p] for p in range(len(entries)) for q in range(p)):
        return f"e_c table is not symmetric: {entries}"
    total = sum(map(sum, entries))
    want = references.bkk_euler_simplices(c["m"], c["degrees"])
    if total != want:
        return f"sum of e_c entries {total} != BKK Euler number {want}"
    return None


def _check_chi(c, out):
    want = _chi_values(_freeze(c))
    if out.get("kind") != c["chi_kind"] or out.get("ps") != list(range(len(want))):
        return f"unexpected euler header {out}"
    if out.get("values") != want:
        return f"chi values {out.get('values')} != reference {want}"
    return None


def check(op, output, outputs):
    c = op["check"]
    kind = c["kind"]
    if kind == "none":
        return None
    if kind == "diamond":
        return _check_diamond(c, output)
    if kind == "torus":
        return _check_torus(c, output)
    if kind == "chi":
        return _check_chi(c, output)
    if kind == "value":
        return None if output == c["value"] else f"H = {output}, expected {c['value']}"
    if kind == "equal":
        other = outputs.get(c["other"])
        return None if output == other else f"H = {output} but {c['other']} gave {other}"
    if kind == "points":
        want = references.polygon_lattice_points(c["rays"], c["t"])
        return None if output == want else f"H = {output}, polygon has {want} points"
    raise ValueError(f"unknown check {kind!r}")
