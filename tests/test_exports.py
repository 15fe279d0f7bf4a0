import ast
import importlib
import pkgutil

import pytest

import sparseqi

MODULES = sorted(m.name for m in pkgutil.iter_modules(sparseqi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"sparseqi.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"sparseqi.{name}.__all__ lists undefined names {missing}"


def test_package_imports_are_public_exports():
    tree = ast.parse(open(sparseqi.__file__).read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sparseqi.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} is not in sparseqi.{node.module}.__all__"
            assert getattr(sparseqi, alias.asname or alias.name) is getattr(module, alias.name)
