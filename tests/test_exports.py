import ast
import importlib
import pkgutil
from pathlib import Path

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


# Public names with no caller in src/ or sqbench/, each with the reason it stays.
UNCALLED = {
    "sobolev_norm_fourier": "one side of the paper's norm equivalence, for its planned report",
    "lp_block_norm": "the other side of that norm equivalence, for the same report",
    "besov_block_norm": "the Besov form of that norm equivalence, for the same report",
    "detail_coeff": "the scalar reference that tests compare block_coeffs against",
    "block_coeffs_oracle": "the refinement reference that tests compare block_coeffs against",
}


def test_every_public_name_has_a_caller():
    # a public module-level function or class needs a Name or Attribute use in
    # src/ or sqbench/ outside its own definition; a method of a public class
    # needs an Attribute use
    package = Path(sparseqi.__file__).resolve().parent
    uses = []  # (file, line, name, whether an attribute)
    for path in sorted([*package.parent.rglob("*.py"), *(package.parents[1] / "sqbench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr, True))
    uncalled = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else []
            for item in [node, *methods]:
                own = range(item.lineno, item.end_lineno + 1)
                if not item.name.startswith("_") and not any(
                    name == item.name and (attr or item is node) and not (at == path and line in own)
                    for at, line, name, attr in uses
                ):
                    uncalled.append(item.name)
    assert sorted(uncalled) == sorted(UNCALLED)
