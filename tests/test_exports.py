"""The export lists: every name in a module's ``__all__`` and every name
``corechar/__init__.py`` imports resolves, so a stale entry left by a
deletion cannot break ``from corechar.<module> import *`` or the package."""

import ast
import importlib
from pathlib import Path

import pytest

import corechar

MODULES = ["arith", "characters", "config", "expsums", "lfunc", "postnikov", "primes", "vinogradov"]


def _package_imports() -> dict[str, list[str]]:
    """module -> the names ``corechar/__init__.py`` imports from it."""
    out: dict[str, list[str]] = {}
    for node in ast.parse(Path(corechar.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_export_lists_resolve(name):
    imports = _package_imports()
    assert set(imports) <= set(MODULES)
    module = importlib.import_module(f"corechar.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert [n for n in imports.get(name, []) if getattr(corechar, n, None) is not getattr(module, n, 0)] == []
