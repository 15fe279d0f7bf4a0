import ast
import importlib
import inspect
import pkgutil
import re
import textwrap
import types
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
    "sobolev_norm_fourier": "the mixed Sobolev side of the paper's W^r_p norm equivalence, "
                            "for the planned per-level report",
    "lp_block_norm": "the square-function side of that equivalence, on the sweep's one decomposition, "
                     "for the same report",
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


def test_every_private_helper_has_a_caller():
    # a private function or method (a _name, not a dunder), nested ones
    # included, needs a Name or Attribute use in src/ outside its own
    # definition; tests do not count, so a helper that loses its last caller
    # in the package goes with it
    package = Path(sparseqi.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    helpers, uncalled = 0, []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_") or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            helpers += 1
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (at == path and line in own) for at, line, name in uses):
                uncalled.append(f"{path.name}:{node.name}")
    assert helpers > 0
    assert uncalled == []


def _readme_dotted_names() -> list[str]:
    """Dotted names in README code spans that start with a ``sparseqi``
    module, the package itself or a package-level name."""
    heads = {*MODULES, "sparseqi", *(n for n in dir(sparseqi) if not n.startswith("_"))}
    text = (Path(sparseqi.__file__).resolve().parents[2] / "README.md").read_text()
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            if name.split(".")[0] in heads:
                names.add(name)
    return sorted(names)


def _set_in_init(cls, attr: str) -> bool:
    """Whether ``cls.__init__`` assigns ``self.<attr>``."""
    if not isinstance(cls, type) or "__init__" not in vars(cls):
        return False
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    return any(
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr == attr
        for node in ast.walk(tree)
    )


def _resolves(name: str) -> bool:
    head, *rest = name.split(".")
    if head == "sparseqi" or head in MODULES:
        obj = importlib.import_module("sparseqi" if head == "sparseqi" else f"sparseqi.{head}")
    else:
        obj = getattr(sparseqi, head)
    for i, attr in enumerate(rest):
        if isinstance(obj, types.ModuleType) and attr in MODULES:
            obj = importlib.import_module(f"sparseqi.{attr}")
        elif hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            return i == len(rest) - 1 and _set_in_init(obj, attr)
    return True


def test_readme_names_resolve():
    names = _readme_dotted_names()
    assert "MissingSamples.point" in names  # an attribute set in __init__
    assert [name for name in names if not _resolves(name)] == []
