"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each traced public function with a wrapper
at every binding a loaded module holds, since ``from .x import f`` copies
the name into the importing module.  A wrapper opens a span: it counts
the call, times it and subtracts the time of spans opened inside it, which
gives self time (CPU time, the clock of the end-to-end metrics).
Exceptions are counted as errors and re-raised.  Some wrappers also read a
count off the arguments or the result (window widths, witnesses, matrix
sizes).  Hit rates and sizes of ``lru_cache`` functions come from
``cache_info()``.  Counts that need a private helper are taken when the
helper exists and reported as absent (``None``) otherwise.  ``metrics()``
returns every per-layer metric by name.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import process_time as clock

# module -> traced public entry points
TRACED = {
    "windows": ("eval_cond", "nonvanishing_window"),
    "sheaves": ("sheaf_h", "sheaf_cohom"),
    "splitting": ("check_theorem",),
    "cohomology": ("sym_twists", "line_cohom", "bundle_cohom"),
    "complexes": ("omega_cohom", "hypercohom"),
    "characters": ("enumerate_contributing",),
    "linalg": ("rank_int",),
    "regularity": ("is_pq_regular", "is_ms_regular", "reg_detail"),
    "sweep": ("run_sweep",),
    "cli": ("main",),
}
# lru_cache functions whose current size is reported
CACHES = (("cohomology", "sym_twists"), ("cohomology", "line_cohom"),
          ("sheaves", "sheaf_cohom"), ("characters", "_character_counts"))
# module-level self time, summed over the module's traced functions
MODULE_SELF = ("sheaves", "regularity")


def _rebind(old, new):
    # every loaded module, so that callers outside the package (the
    # workloads) reach the wrapper too
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if value is old:
                setattr(module, attr, new)


class Span:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: dict[str, Span] = {}
        self.originals: dict[str, object] = {}
        self.counts: defaultdict[str, float] = defaultdict(int)
        self._stack: list[float] = []
        self._complexes = None
        self._sym_misses = 0

    # -- installation ------------------------------------------------------

    def install(self):
        importlib.import_module("scrollcohom")
        for mod_name, funcs in TRACED.items():
            module = importlib.import_module(f"scrollcohom.{mod_name}")
            for fname in funcs:
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                name = f"{mod_name}.{fname}"
                self.originals[name] = orig
                self.spans[name] = Span()
                _rebind(orig, self._wrap(name, orig, _MEASURES.get(name)))
        complexes = sys.modules["scrollcohom.complexes"]
        if hasattr(complexes, "_contributing_keys") and hasattr(complexes, "_profile_dims") \
                and isinstance(getattr(complexes, "_PROFILE_CACHE", None), dict):
            self._complexes = complexes
            _rebind(complexes._contributing_keys, self._count_keys(complexes._contributing_keys))
            _rebind(complexes._profile_dims, self._count_profiles(complexes._profile_dims))

    def _wrap(self, name, orig, measure):
        span = self.spans[name]
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                dur = clock() - t0
                span.calls += 1
                span.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if measure is not None:
                # the measure's own time is charged to no span
                t1 = clock()
                measure(tracer, orig, args, result)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return traced

    def _count_keys(self, orig):
        def counted(*args, **kwargs):
            keys = orig(*args, **kwargs)
            if self.active:
                self.counts["complexes.keys"] += len(keys)
            return keys
        return counted

    def _count_profiles(self, orig):
        cache = self._complexes._PROFILE_CACHE

        def counted(*args, **kwargs):
            before = len(cache)
            dims = orig(*args, **kwargs)
            if self.active:
                self.counts["complexes.profile_calls"] += 1
                self.counts["complexes.profile_hits"] += len(cache) == before
            return dims
        return counted

    # -- results -----------------------------------------------------------

    def _cache_info(self, mod_name, fname):
        name = f"{mod_name}.{fname}"
        fn = self.originals.get(name) or getattr(sys.modules.get(f"scrollcohom.{mod_name}"), fname, None)
        info = getattr(fn, "cache_info", None)
        return info() if info else None

    def metrics(self) -> dict[str, tuple[float | None, str]]:
        out: dict[str, tuple[float | None, str]] = {}
        c = self.counts
        for mod_name, funcs in TRACED.items():
            for fname in funcs:
                name = f"{mod_name}.{fname}"
                span = self.spans.get(name)
                out[f"{name}.calls"] = (span.calls if span else None, "count")
                out[f"{name}.self_s"] = (span.self_s if span else None, "s")
                out[f"{name}.errors"] = (span.errors if span else None, "count")
        for mod_name in MODULE_SELF:
            selfs = [self.spans[f"{mod_name}.{f}"].self_s for f in TRACED[mod_name]
                     if f"{mod_name}.{f}" in self.spans]
            out[f"{mod_name}.self_s"] = (sum(selfs) if selfs else None, "s")
        for mod_name, fname in CACHES:
            info = self._cache_info(mod_name, fname)
            out[f"{mod_name}.{fname}.currsize"] = (info.currsize if info else None, "count")
        for mod_name, fname in (("cohomology", "line_cohom"), ("sheaves", "sheaf_cohom"),
                                ("cohomology", "sym_twists")):
            info = self._cache_info(mod_name, fname)
            lookups = info.hits + info.misses if info else 0
            out[f"{mod_name}.{fname}.hit_rate"] = (info.hits / lookups if lookups else (0.0 if info else None),
                                                   "frac")
        nv = self.spans.get("windows.nonvanishing_window")
        out["windows.window_width"] = (c["windows.width_sum"] / nv.calls if nv and nv.calls else 0.0, "count")
        for key in ("splitting.check_theorem.witnesses", "cohomology.sym_twists.terms",
                    "characters.enumerate_contributing.chars", "linalg.rank_int.rows",
                    "linalg.rank_int.nnz", "linalg.rank_int.max_rows", "sweep.cells_fresh",
                    "sweep.cells_cached", "cli.main.nonzero_exits"):
            out[key] = (c[key], "count")
        if self._complexes is not None:
            calls = c["complexes.profile_calls"]
            out["complexes.keys"] = (c["complexes.keys"], "count")
            out["complexes.profiles"] = (len(self._complexes._PROFILE_CACHE), "count")
            out["complexes.profile_hit_rate"] = (c["complexes.profile_hits"] / calls if calls else 0.0, "frac")
        else:
            out["complexes.keys"] = (None, "count")
            out["complexes.profiles"] = (None, "count")
            out["complexes.profile_hit_rate"] = (None, "frac")
        return out


# -- counts read off a traced call: measure(tracer, orig, args, result) ------

def _window(t, orig, args, result):
    lo, hi = result
    t.counts["windows.width_sum"] += hi - lo + 1


def _witnesses(t, orig, args, result):
    t.counts["splitting.check_theorem.witnesses"] += len(result.witnesses)


def _sym_terms(t, orig, args, result):
    # a miss enumerates every base twist; a hit enumerates none
    misses = orig.cache_info().misses
    if misses != t._sym_misses:
        t._sym_misses = misses
        t.counts["cohomology.sym_twists.terms"] += len(result)


def _chars(t, orig, args, result):
    t.counts["characters.enumerate_contributing.chars"] += len(result)


def _matrix(t, orig, args, result):
    rows = args[0]
    t.counts["linalg.rank_int.rows"] += len(rows)
    t.counts["linalg.rank_int.nnz"] += sum(map(len, rows))
    t.counts["linalg.rank_int.max_rows"] = max(t.counts["linalg.rank_int.max_rows"], len(rows))


def _sweep(t, orig, args, result):
    t.counts["sweep.cells_fresh"] += result["fresh"]
    t.counts["sweep.cells_cached"] += result["cached"]


def _exit(t, orig, args, result):
    t.counts["cli.main.nonzero_exits"] += result != 0


_MEASURES = {
    "windows.nonvanishing_window": _window,
    "splitting.check_theorem": _witnesses,
    "cohomology.sym_twists": _sym_terms,
    "characters.enumerate_contributing": _chars,
    "linalg.rank_int": _matrix,
    "sweep.run_sweep": _sweep,
    "cli.main": _exit,
}
