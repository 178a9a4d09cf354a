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
    assert {"cohomology.line_cohom", "sheaves.sheaf_cohom", "characters._character_counts",
            "windows.omega_h_intervals", "cli.build_parser"} <= set(found)
    unbounded = [name for name, fn in found.items() if fn.cache_parameters()["maxsize"] is None]
    assert not unbounded
