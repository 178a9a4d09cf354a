"""Every cache in the package has a size limit."""

from __future__ import annotations

import importlib
import pkgutil

import scrollcohom


def _cached_functions():
    for info in pkgutil.iter_modules(scrollcohom.__path__):
        module = importlib.import_module(f"scrollcohom.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)) and value.__module__ == module.__name__:
                yield f"{info.name}.{name}", value


def test_every_lru_cache_is_bounded():
    found = dict(_cached_functions())
    assert {"cohomology.line_cohom", "cohomology._sym_row", "sheaves.sheaf_cohom",
            "characters._character_counts", "windows.omega_h_intervals", "cli.build_parser"} <= set(found)
    unbounded = [name for name, fn in found.items() if fn.cache_parameters()["maxsize"] is None]
    assert not unbounded


def test_profile_cache_is_bounded(monkeypatch):
    # the reference route's per-profile dict is cleared when full; answers do not change
    from scrollcohom import complexes
    from scrollcohom.scroll import DivClass, make_scroll

    x = make_scroll(1, 2, [1, 2, 3])
    twists = [DivClass(0, 0), DivClass(-2, 1), DivClass(2, 2), DivClass(-3, 0)]
    monkeypatch.setattr(complexes, "_PROFILE_CACHE", {})
    unbounded = [complexes.hypercohom(x, complexes.cotangent_resolution_left(x, 1).twist(t)) for t in twists]
    assert len(complexes._PROFILE_CACHE) > 4
    monkeypatch.setattr(complexes, "_PROFILE_CACHE", {})
    monkeypatch.setattr(complexes, "_PROFILE_CACHE_MAX", 4)
    for t, want in zip(twists, unbounded):
        assert complexes.hypercohom(x, complexes.cotangent_resolution_left(x, 1).twist(t)) == want
        assert len(complexes._PROFILE_CACHE) <= 4
