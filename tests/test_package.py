"""The package's public names: ``curvbc.__all__`` against its bindings."""
from __future__ import annotations

import inspect

import curvbc


def test_all_names_resolve_without_duplicates():
    assert len(curvbc.__all__) == len(set(curvbc.__all__))
    missing = [name for name in curvbc.__all__ if not hasattr(curvbc, name)]
    assert not missing


def test_every_public_class_and_function_is_listed():
    bound = {name for name, value in vars(curvbc).items()
             if not name.startswith("_")
             and (inspect.isclass(value) or inspect.isfunction(value))}
    assert bound - set(curvbc.__all__) == set()
