"""Command-line interface.

Problem documents are JSON with exact integers only (floats are rejected).
Three shapes are accepted:

* fan problem:    {"fan": {"rays": [...], "max_cones": [...]} | "file.json",
                   "supports": [[[...], ...], ...]}
* torus problem:  {"dim": m, "supports": [[[...], ...], ...]}
* wps problem:    {"weights": [...], "degrees": [...]}

Exit codes: 0 success, 2 parse error, 3 precondition violation or an
exhausted resource (recursion depth, memory), 4 internal consistency or
other internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import cache
from itertools import chain, repeat

from .errors import ConsistencyError, InputError
from .fans import (
    Fan,
    TorusCIProblem,
    adapted_subfan,
    degrees_of,
    is_regular,
    is_simplicial,
    validate,
)
from .forms import chi_all
from .hilbert import HilbertContext, build_context
from .hodge import epq_c_ci, hodge_compact
from .hodge_tables import EPQTable
from .wps import Weights, wps_chi, wps_chi_all, wps_hodge


ProblemDocument = namedtuple(  # kind is "fan", "torus" or "wps"
    "ProblemDocument",
    "kind fan supports dim weights degrees",
    defaults=(None, (), None, (), ()),
)


# --- parsing -----------------------------------------------------------------


def _reject_float(_):
    raise InputError("floating point numbers are not allowed; use exact integers")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _is_int_list(obj):
    # type, not isinstance: JSON true and false are bools, a subclass of int
    return isinstance(obj, list) and all(type(x) is int for x in obj)


def _int_vector(obj, what):
    if not _is_int_list(obj):
        raise InputError(f"{what} must be an array of integers")
    return tuple(obj)


def _vector_list(obj, what):
    if not isinstance(obj, list):
        raise InputError(f"{what} must be an array")
    # whole-list passes that run in C: a Python-level check per point took twice as long
    if not (all(map(isinstance, obj, repeat(list)))
            and {int}.issuperset(map(type, chain.from_iterable(obj)))):
        raise InputError(f"{what} entry must be an array of integers")
    return tuple(map(tuple, obj))


def _parse_fan(obj, base_dir):
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(base_dir, obj)
        obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError("fan must be an object or a file path")
    if "rays" not in obj or "max_cones" not in obj:
        raise InputError("fan needs 'rays' and 'max_cones'")
    rays = _vector_list(obj["rays"], "fan rays")
    if not rays:
        raise InputError("fan needs at least one ray")
    dim = len(rays[0])
    if any(len(r) != dim for r in rays):
        raise InputError("fan rays must share one dimension")
    cones = []
    if not isinstance(obj["max_cones"], list):
        raise InputError("max_cones must be an array")
    for c in obj["max_cones"]:
        cone = _int_vector(c, "max_cones entry")
        if any(i < 0 or i >= len(rays) for i in cone):
            raise InputError(f"cone {list(cone)} references a missing ray")
        cones.append(tuple(sorted(cone)))
    return Fan(dim=dim, rays=rays, maximal_cones=tuple(cones))


def _parse_supports(obj, dim):
    supports = []
    if not isinstance(obj, list):
        raise InputError("supports must be an array of point arrays")
    for s in obj:
        pts = _vector_list(s, "support")
        if not pts:
            raise InputError("support sets must be nonempty")
        if any(len(q) != dim for q in pts):
            raise InputError("support points must match the ambient dimension")
        supports.append(pts)
    return tuple(supports)


def load_document(path) -> ProblemDocument:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))
    shapes = [key for key in ("fan", "dim", "weights") if key in doc]
    if len(shapes) != 1:
        raise InputError(
            "document must have exactly one of 'fan', 'dim' or 'weights'"
        )
    shape = shapes[0]
    if shape == "fan":
        fan = _parse_fan(doc["fan"], base_dir)
        supports = _parse_supports(doc.get("supports", []), fan.dim)
        return ProblemDocument(kind="fan", fan=fan, supports=supports)
    if shape == "dim":
        if type(doc["dim"]) is not int or doc["dim"] < 0:
            raise InputError("dim must be a nonnegative integer")
        supports = _parse_supports(doc.get("supports", []), doc["dim"])
        return ProblemDocument(kind="torus", dim=doc["dim"], supports=supports)
    weights = _int_vector(doc["weights"], "weights")
    degrees = _int_vector(doc.get("degrees", []), "degrees")
    return ProblemDocument(kind="wps", weights=weights, degrees=degrees)


def _require(doc, kind, command):
    if doc.kind != kind:
        raise ValueError(f"'{command}' needs a {kind} problem document")


# --- rendering ---------------------------------------------------------------


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def render_diamond(table: EPQTable) -> str:
    n = table.bound
    if n < 0:
        return "(empty)"
    width = max(len(str(table.get(p, q))) for p in range(n + 1) for q in range(n + 1))
    lines = []
    for r in range(2 * n + 1):
        cells = []
        for p in range(min(r, n), max(0, r - n) - 1, -1):
            cells.append(str(table.get(p, r - p)).rjust(width))
        pad = " " * ((n + 1 - len(cells)) * (width + 1) // 2)
        lines.append((pad + " ".join(cells)).rstrip())
    return "\n".join(lines)


def render_matrix(table: EPQTable) -> str:
    return str([list(row) for row in table.entries])


def _table_payload(table: EPQTable):
    return {
        "kind": table.kind,
        "n": table.bound,
        "entries": [list(row) for row in table.entries],
    }


# --- commands ----------------------------------------------------------------


def cmd_fan_check(args) -> int:
    doc = load_document(args.file)
    _require(doc, "fan", "fan-check")
    fan = doc.fan
    report = validate(fan)
    flags = {
        "valid": report.ok,
        "complete": report.complete,
        "simplicial": report.ok and is_simplicial(fan),
        "regular": report.ok and is_regular(fan),
    }
    adapted = None
    if report.ok and doc.supports:
        adapted = adapted_subfan(fan, doc.supports).whole_fan
    if args.json:
        payload = dict(flags)
        payload["adapted"] = adapted
        payload["problems"] = list(report.problems)
        _emit_json(payload)
        return 0
    if not report.ok:
        print(f"invalid: {report.first_violation}")
        return 0
    words = [w for w in ("complete", "simplicial", "regular") if flags[w]]
    if adapted is not None:
        words.append("adapted" if adapted else "not-adapted")
    print(" ".join(words) if words else "valid")
    return 0


# Hilbert contexts of the fans of recent `euler` commands, least recently
# used first: commands on one fan share its validation, frontier and H memo.
MAX_CONTEXTS = 8
_contexts: dict = {}


def _context(fan: Fan) -> HilbertContext:
    """The context of `fan`, built on first use; a failed build is not kept."""
    ctx = _contexts.pop(fan, None)
    if ctx is None:
        ctx = build_context(fan)
        if len(_contexts) >= MAX_CONTEXTS:
            del _contexts[next(iter(_contexts))]
    _contexts[fan] = ctx
    return ctx


def cmd_euler(args) -> int:
    doc = load_document(args.file)
    _require(doc, "fan", "euler")
    ctx = _context(doc.fan)
    degrees = degrees_of(doc.fan, doc.supports)
    if args.p is not None:
        ps = [args.p]
        values = chi_all(ctx, degrees, args.kind, args.p)[args.p:]
    else:
        ps = list(range(max(doc.fan.dim - len(doc.supports), 0) + 1))
        values = chi_all(ctx, degrees, args.kind, ps[-1])
    if args.json:
        _emit_json({"kind": args.kind, "ps": ps, "values": values})
    else:
        for p, v in zip(ps, values):
            print(f"p={p}: {v}")
    return 0


def cmd_hodge(args) -> int:
    doc = load_document(args.file)
    _require(doc, "fan", "hodge")
    table = hodge_compact(doc.fan, doc.supports)
    if args.json:
        _emit_json(_table_payload(table))
    else:
        print(render_diamond(table))
    return 0


def cmd_hodge_torus(args) -> int:
    doc = load_document(args.file)
    _require(doc, "torus", "hodge-torus")
    table = epq_c_ci(TorusCIProblem(m=doc.dim, supports=doc.supports))
    if args.json:
        _emit_json(_table_payload(table))
    else:
        print(render_matrix(table))
    return 0


def cmd_wps(args) -> int:
    doc = load_document(args.file)
    _require(doc, "wps", "wps")
    weights = Weights(doc.weights)
    if args.action == "euler":
        n = weights.m - len(doc.degrees)
        if args.p is not None:
            ps = [args.p]
            values = [wps_chi(weights, doc.degrees, args.p, args.kind)]
        else:
            ps = list(range(max(n, 0) + 1))
            values = wps_chi_all(weights, doc.degrees, args.kind, ps[-1])
        if args.json:
            _emit_json({"kind": args.kind, "ps": ps, "values": values})
        else:
            for p, v in zip(ps, values):
                print(f"p={p}: {v}")
        return 0
    table = wps_hodge(weights, doc.degrees)
    if args.json:
        _emit_json(_table_payload(table))
    else:
        print(render_diamond(table))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="toric-hodge",
        description="Euler characteristics of form sheaves and Hodge numbers "
        "for toric complete intersections, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("fan-check", cmd_fan_check, help="validate a fan and report its flags")
    p.add_argument("file")

    p = add("euler", cmd_euler, help="Euler characteristics of form sheaves")
    p.add_argument("--kind", choices=("alt", "sym", "tensor"), default="alt")
    group = p.add_mutually_exclusive_group()
    group.add_argument("-p", type=int, default=None, help="single form degree")
    group.add_argument(
        "--all-p", action="store_true",
        help="p from 0 to dim - k for k supports (the default)",
    )
    p.add_argument("file")

    p = add("hodge", cmd_hodge, help="Hodge diamond of a compact intersection")
    p.add_argument("file")

    p = add("hodge-torus", cmd_hodge_torus, help="compactly supported e-table in a torus")
    p.add_argument("file")

    p = add("wps", cmd_wps, help="weighted projective space computations")
    p.add_argument("action", choices=("euler", "hodge"))
    p.add_argument("--kind", choices=("alt", "sym", "tensor"), default="alt")
    p.add_argument("-p", type=int, default=None)
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"{exc.check}: internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except (RecursionError, MemoryError) as exc:  # RecursionError is a RuntimeError
        resource = "recursion depth" if isinstance(exc, RecursionError) else "memory"
        print(f"error: out of {resource}; the problem is too large", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
