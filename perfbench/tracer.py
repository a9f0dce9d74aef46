"""Per-layer counters and spans, recorded from outside the program.

The tracer replaces functions by wrappers where their callers look them
up: in every loaded ffheight module whose attribute is the original
function (so `census.expand` and `detmethod.point_stream` are both
covered), or on the class for methods.  A probe whose target a later
refactor removed is skipped and reported, never an error.  `uninstall`
puts every original back, so untraced rounds run the program untouched.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _stats_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs.get("stats")


def _visits_hook(tr):
    # census._bfs_enumerate(compiled, pool, q, budget, stats, include_free)
    def before(args, kwargs):
        stats = _stats_arg(args, kwargs, 4)
        v0 = stats.visits

        def after(result):
            tr.n["census.visits"] += stats.visits - v0

        return after

    return before


def _fiber_hook(tr):
    # census._block_count(compiled, nvars, q, budget, stats)
    def before(args, kwargs):
        stats = _stats_arg(args, kwargs, 4)
        h0, m0 = stats.cache_hits, stats.cache_misses

        def after(result):
            tr.n["census.fiber_hits"] += stats.cache_hits - h0
            tr.n["census.fiber_misses"] += stats.cache_misses - m0

        return after

    return before


def _after(fn):
    def before(args, kwargs):
        return fn

    return before


# (module, attribute, span or counter key, "timed" | "count", hook factory)
PROBES = (
    ("census", "count_points", "census.count", "timed", None),
    ("census", "point_stream", "census.stream", "timed",
     lambda tr: _after(lambda r: tr.bump("census.points_streamed", len(r)))),
    ("census", "_bfs_enumerate", "census.enumerate", "timed", _visits_hook),
    ("census", "_block_count", "census.fibers", "timed", _fiber_hook),
    ("varieties", "expand", "varieties.expand", "timed",
     lambda tr: _after(lambda r: tr.bump("varieties.coeff_vars", r.nvars))),
    ("cli", "main", "cli.main", "timed", None),
    ("groebner", "groebner", "groebner.basis", "timed",
     lambda tr: _after(lambda r: tr.bump("groebner.basis_gens", len(r.gens)))),
    ("groebner", "normal_form", "groebner.normal_form", "timed",
     lambda tr: _after(lambda r: tr.bump("groebner.zero_reductions", r.is_zero()))),
    ("groebner", "krull_dimension", "groebner.krull", "timed", None),
    ("groebner", "ideal_member", "groebner.member", "timed", None),
    ("multipoly", "MultiPoly.leading_term", "multipoly.leading_term", "count", None),
    ("detmethod", "auxiliary_poly_projective", "detmethod.aux", "timed", None),
    ("detmethod", "auxiliary_poly_affine", "detmethod.aux", "timed", None),
    ("detmethod", "congruence_class", "detmethod.class", "timed",
     lambda tr: _after(lambda r: tr.bump("detmethod.class_points", len(r)))),
    ("detmethod", "divisibility_exponent", "detmethod.divisibility", "timed", None),
    ("detmethod", "_IncrementalRREF.add", "detmethod.rref", "timed", None),
    ("detmethod", "_IncrementalRREF.__init__", "detmethod.degrees_tried", "count", None),
    ("lattices", "reduce_basis", "lattices.reduce", "timed", None),
    ("lattices", "kernel_lattice", "lattices.kernel", "timed", None),
    ("lattices", "lattice_height", "lattices.height", "timed", None),
    ("rings", "RatFunc.__init__", "rings.ratfunc_new", "count", None),
    ("rings", "UniPoly.__divmod__", "rings.uni_divmod", "count", None),
    ("rings", "uni_gcd", "rings.uni_gcd", "count", None),
)


# name, unit, better, value from a tracer snapshot
def _ratio(a, b):
    return a / b if b else 0.0


LAYER_METRICS = (
    ("census.fibers_s", "s", "lower", lambda s: s.self_t["census.fibers"]),
    ("census.fibers", "count", "lower",
     lambda s: s.n["census.fiber_hits"] + s.n["census.fiber_misses"]),
    ("census.fiber_cache_hit_ratio", "ratio", "higher",
     lambda s: _ratio(s.n["census.fiber_hits"],
                      s.n["census.fiber_hits"] + s.n["census.fiber_misses"])),
    ("census.visits", "count", "lower", lambda s: s.n["census.visits"]),
    ("census.enumerate_s", "s", "lower", lambda s: s.t["census.enumerate"]),
    ("census.enumerate_calls", "count", "lower", lambda s: s.calls["census.enumerate"]),
    ("varieties.expand_s", "s", "lower", lambda s: s.t["varieties.expand"]),
    ("varieties.expand_calls", "count", "lower", lambda s: s.calls["varieties.expand"]),
    ("varieties.coeff_vars", "count", "lower", lambda s: s.n["varieties.coeff_vars"]),
    ("census.stream_s", "s", "lower", lambda s: s.t["census.stream"]),
    ("census.points_streamed", "count", "lower", lambda s: s.n["census.points_streamed"]),
    ("census.count_s", "s", "lower", lambda s: s.t["census.count"]),
    ("census.count_calls", "count", "lower", lambda s: s.calls["census.count"]),
    ("cli.main_s", "s", "lower", lambda s: s.t["cli.main"]),
    ("cli.calls", "count", "lower", lambda s: s.calls["cli.main"]),
    ("groebner.basis_s", "s", "lower", lambda s: s.t["groebner.basis"]),
    ("groebner.bases", "count", "lower", lambda s: s.calls["groebner.basis"]),
    ("groebner.basis_gens", "count", "lower", lambda s: s.n["groebner.basis_gens"]),
    ("groebner.normal_form_s", "s", "lower", lambda s: s.t["groebner.normal_form"]),
    ("groebner.normal_form_calls", "count", "lower",
     lambda s: s.calls["groebner.normal_form"]),
    ("groebner.zero_reductions", "count", "lower",
     lambda s: s.n["groebner.zero_reductions"]),
    ("multipoly.leading_term_calls", "count", "lower",
     lambda s: s.calls["multipoly.leading_term"]),
    ("groebner.krull_s", "s", "lower", lambda s: s.t["groebner.krull"]),
    ("groebner.member_s", "s", "lower", lambda s: s.t["groebner.member"]),
    ("detmethod.aux_s", "s", "lower", lambda s: s.t["detmethod.aux"]),
    ("detmethod.aux_builds", "count", "lower", lambda s: s.calls["detmethod.aux"]),
    ("detmethod.rref_s", "s", "lower", lambda s: s.t["detmethod.rref"]),
    ("detmethod.rref_rows", "count", "lower", lambda s: s.calls["detmethod.rref"]),
    ("detmethod.degrees_tried", "count", "lower",
     lambda s: s.calls["detmethod.degrees_tried"]),
    ("rings.ratfunc_new", "count", "lower", lambda s: s.calls["rings.ratfunc_new"]),
    ("rings.uni_divmod_calls", "count", "lower", lambda s: s.calls["rings.uni_divmod"]),
    ("rings.uni_gcd_calls", "count", "lower", lambda s: s.calls["rings.uni_gcd"]),
    ("detmethod.class_s", "s", "lower", lambda s: s.t["detmethod.class"]),
    ("detmethod.class_points", "count", "lower", lambda s: s.n["detmethod.class_points"]),
    ("detmethod.divisibility_s", "s", "lower", lambda s: s.t["detmethod.divisibility"]),
    ("detmethod.divisibility_calls", "count", "lower",
     lambda s: s.calls["detmethod.divisibility"]),
    ("lattices.reduce_s", "s", "lower", lambda s: s.t["lattices.reduce"]),
    ("lattices.kernel_s", "s", "lower", lambda s: s.t["lattices.kernel"]),
    ("lattices.calls", "count", "lower",
     lambda s: s.calls["lattices.reduce"] + s.calls["lattices.kernel"]
     + s.calls["lattices.height"]),
)


class Snapshot:
    """Counters and spans of one traced round."""

    def __init__(self, t, self_t, calls, n):
        self.t, self.self_t, self.calls, self.n = t, self_t, calls, n

    def metrics(self):
        return {name: fn(self) for name, _, _, fn in LAYER_METRICS}


class Tracer:
    def __init__(self):
        self.patches = []  # (owner, attribute, original)
        self.skipped = []
        self.reset()

    def reset(self):
        self.t = defaultdict(float)  # inclusive seconds per span key
        self.self_t = defaultdict(float)  # seconds minus nested spans
        self.calls = defaultdict(int)
        self.n = defaultdict(int)
        self.stack = []

    def bump(self, key, amount):
        self.n[key] += int(amount)

    def snapshot(self):
        def copy(d):
            return defaultdict(d.default_factory, d)

        return Snapshot(copy(self.t), copy(self.self_t), copy(self.calls), copy(self.n))

    # -- wrappers ------------------------------------------------------------
    def _timed(self, key, orig, hook):
        tr = self

        def wrapper(*args, **kwargs):
            after = hook(args, kwargs) if hook else None
            stack = tr.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                tr.t[key] += dt
                tr.self_t[key] += dt - nested
                if stack:
                    stack[-1] += dt
                tr.calls[key] += 1
            if after:
                after(result)
            return result

        return wrapper

    def _counted(self, key, orig):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------
    def install(self):
        self.skipped = []
        loaded = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ffheight" or name.startswith("ffheight."))
        ]
        for modname, attr, key, kind, hook in PROBES:
            module = sys.modules.get(f"ffheight.{modname}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                self.skipped.append(f"{modname}.{attr}")
                continue
            h = hook(self) if hook else None
            wrapper = (
                self._timed(key, orig, h) if kind == "timed" else self._counted(key, orig)
            )
            if owner_name:
                self._patch(owner, meth, orig, wrapper)
                continue
            for m in loaded:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper):
        setattr(owner, name, wrapper)
        self.patches.append((owner, name, orig))

    def uninstall(self):
        while self.patches:
            owner, name, orig = self.patches.pop()
            setattr(owner, name, orig)
