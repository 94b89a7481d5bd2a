"""Outside-in layer tracing of toric_hodge.

The tracer wraps the entry points of each layer (one package module, with
`hodge_tables` counted under `hodge`) from outside the program.  The
modules import one another by name, so a wrapper is installed wherever a
module binds a function of another layer: in the calling module's
namespace, and in dictionaries of functions such as `cli._KIND_FUNCS`.
A few names are also wrapped inside their own module, where a per-layer
count needs every call (`fans.cone_hrep`, `hilbert.n_I_s`, ...).  Tiny
helpers (`lattice.dot` and its kin) are left alone: they are called
hundreds of thousands of times and would dominate the tracing cost.

Every wrapped call is a span whose parent is the innermost open span.  A
layer's self time is the time of its spans minus the time of their child
spans.  Inclusive times per function count a recursive call once, at its
outermost call.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict

LAYERS = ("lattice", "fans", "hilbert", "forms", "wps", "hodge", "cli")
MODULE_LAYER = {name: name for name in LAYERS}
MODULE_LAYER["hodge_tables"] = "hodge"

# vector and matrix helpers whose call counts run into the hundreds of thousands
HELPERS = frozenset({
    "dot", "vec_add", "vec_sub", "vec_neg", "vec_scale", "is_zero", "primitive",
    "mat_identity", "mat_mul", "mat_vec", "vec_mat",
})

# names wrapped inside their own module as well, so that every call is seen
OWN_MODULE = {
    "lattice": ("cone_extreme_rays", "lattice_points", "minkowski_support"),
    "fans": ("cone_hrep", "validate", "degrees_of", "stellar_subdivide_to_simplicial"),
    "hilbert": ("build_context", "h_of_s", "n_I_s"),
    "forms": ("y_truncated_expand",),
    "wps": ("wps_chi", "wps_hodge"),
    "hodge": ("epq_c_ci", "hodge_compact"),
    "cli": ("main",),
}


def _layer_of(fn):
    module = getattr(fn, "__module__", "") or ""
    pkg, _, name = module.partition(".")
    return MODULE_LAYER.get(name) if pkg == "toric_hodge" else None


class Tracer:
    def __init__(self):
        self.stack = []  # one [child time, child calls] pair per open span
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = Counter()
        self.leaf_calls = Counter()  # spans with no child span
        self.depth = Counter()
        self.points_counted = 0
        self.nonempty_regions = 0
        self.series_terms = 0
        self._wrappers = {}
        self._patches = []  # (namespace, key, original)
        self._memo = None  # hodge._epq_memo, whose growth counts the misses
        self._memo_start = 0

    # -- installation -------------------------------------------------------

    def _wrapper(self, fn, layer):
        cached = self._wrappers.get(id(fn))
        if cached is not None:
            return cached
        key = f"{layer}.{fn.__name__}"
        stack, clock = self.stack, time.perf_counter
        observe = {
            "lattice.lattice_points": self._observe_points,
            "forms.y_truncated_expand": self._observe_series,
        }.get(key)

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            self.depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.depth[key] -= 1
                self.self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                if not self.depth[key]:
                    self.inclusive_s[key] += elapsed
                self.calls[key] += 1
                if not frame[1]:
                    self.leaf_calls[key] += 1
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        self._wrappers[id(fn)] = traced
        return traced

    def _patch(self, namespace, key, fn, layer):
        self._patches.append((namespace, key, fn))
        namespace[key] = self._wrapper(fn, layer)

    def install(self):
        modules = {}
        for name in MODULE_LAYER:
            modules[name] = importlib.import_module(f"toric_hodge.{name}")
        for name, module in modules.items():
            here = MODULE_LAYER[name]
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, types.FunctionType):
                    layer = _layer_of(value)
                    if layer and layer != here and value.__name__ not in HELPERS:
                        self._patch(namespace, key, value, layer)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        layer = _layer_of(v) if isinstance(v, types.FunctionType) else None
                        if layer and layer != here:
                            self._patch(value, k, v, layer)
            for key in OWN_MODULE.get(name, ()):
                value = namespace.get(key)
                if isinstance(value, types.FunctionType):
                    self._patch(namespace, key, value, here)
        memo = getattr(modules["hodge"], "_epq_memo", None)
        if isinstance(memo, dict):
            self._memo, self._memo_start = memo, len(memo)

    def uninstall(self):
        for namespace, key, fn in reversed(self._patches):
            namespace[key] = fn
        self._patches.clear()

    # -- observers ----------------------------------------------------------

    def _observe_points(self, result):
        bounded, points = result
        if bounded:
            self.points_counted += len(points)
            self.nonempty_regions += bool(points)

    def _observe_series(self, result):
        self.series_terms += len(result)

    # -- report -------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        calls, incl = self.calls, self.inclusive_s

        def ratio(num, den):
            return num / den if den else 0.0

        epq_calls = calls["hodge.epq_c_ci"]
        if self._memo is not None:
            epq_hits = epq_calls - (len(self._memo) - self._memo_start)
        else:
            epq_hits = self.leaf_calls["hodge.epq_c_ci"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "fans.validate_calls": calls["fans.validate"],
            "fans.validate_s": incl["fans.validate"],
            "fans.cone_hrep_calls": calls["fans.cone_hrep"],
            "fans.subdivide_s": incl["fans.stellar_subdivide_to_simplicial"],
            "lattice.minkowski_s": incl["lattice.minkowski_support"],
            "lattice.cone_extreme_rays_calls": calls["lattice.cone_extreme_rays"],
            "lattice.lattice_points_calls": calls["lattice.lattice_points"],
            "lattice.points_counted": self.points_counted,
            "hilbert.n_calls": calls["hilbert.n_I_s"],
            "hilbert.nonempty_region_ratio": ratio(
                self.nonempty_regions, calls["lattice.lattice_points"]),
            "hilbert.build_context_s": incl["hilbert.build_context"],
            "hilbert.h_calls": calls["hilbert.h_of_s"],
            "hilbert.n_memo_hit_ratio": ratio(
                self.leaf_calls["hilbert.n_I_s"], calls["hilbert.n_I_s"]),
            "hilbert.h_memo_hit_ratio": ratio(
                self.leaf_calls["hilbert.h_of_s"], calls["hilbert.h_of_s"]),
            "forms.expand_calls": calls["forms.y_truncated_expand"],
            "forms.series_terms": self.series_terms,
            "wps.chi_calls": calls["wps.wps_chi"],
            "hodge.epq_calls": epq_calls,
            "hodge.epq_memo_hit_ratio": ratio(epq_hits, epq_calls),
            "hodge.orbits": calls["fans.orbit_problem"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(self.self_s.values()),
            "trace.spans": sum(calls.values()),
        })
        return out
