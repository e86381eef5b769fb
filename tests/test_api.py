"""Every exported name resolves: a name deleted from a module must also
leave its __all__ and the package's re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sepcat

MODULES = sorted(info.name for info in pkgutil.iter_modules(sepcat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sepcat.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(sepcat.__file__).read_text(encoding="utf-8"))
    checked = 0
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = importlib.import_module(f"sepcat.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(sepcat, alias.asname or alias.name)
            assert public is None or alias.name in public, f"{node.module}.{alias.name} is not in its __all__"
            checked += 1
    assert checked
