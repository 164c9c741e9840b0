"""Static scan of the package for unused imports, orphaned private helpers,
public names only tests reach and private names reached across modules."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qvista"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH_MODULES = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))

# public names that no module calls and that stay as oracles of the tests
TEST_ORACLES = {
    "validate_metric": "the metric axioms of the fixtures and samples",
    "natural_geodesic": "the ray tiles of the boundary metric",
    "extended_proximity": "per-pair oracle of extended_proximity_matrix",
    "sphere_from_complex": "chart map of the raster tests; not bitwise equal to "
                           "sphere_from_complex_array (max difference 4.4e-16)",
    "check_dichotomy": "the radius dichotomy that adjust_radii guarantees",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree: ast.AST) -> set[str]:
    """Every bare name loaded or stored, and every attribute name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_no_orphaned_private_helpers():
    trees = {p.name: parse(p) for p in MODULES}
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_"):
                continue
            if not any(node.name in referenced_names(t) for t in trees.values()):
                orphans.append(f"{name}:{node.lineno} {node.name}")
    assert not orphans, f"private helpers nothing references: {orphans}"


def test_public_names_are_reached():
    """Every public module-level function or class is referenced outside its
    own definition, by a package module or a perfbench script, unless it is
    one of the TEST_ORACLES: no other public name is reached only from tests.
    Re-exports in ``__init__.py`` do not count."""
    package = [parse(p) for p in MODULES if p.name != "__init__.py"]
    statements = [node for tree in package + [parse(p) for p in BENCH_MODULES]
                  for node in tree.body]
    uses = [referenced_names(node) for node in statements]
    unreached = {
        node.name
        for tree in package for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_private(node.name)
        and not any(node.name in names for other, names in zip(statements, uses) if other is not node)
    }
    only_tests = sorted(unreached - TEST_ORACLES.keys())
    assert not only_tests, f"public names only tests reach: {only_tests}"
    stale = sorted(TEST_ORACLES.keys() - unreached)
    assert not stale, f"test oracles that a module now reaches: {stale}"


def is_private(name: str) -> bool:
    """A single-underscore name; dunders such as ``__version__`` are public."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    """No module imports another's private name or reads one off a sibling module."""
    tree = parse(path)
    siblings = {p.stem for p in MODULES}
    hits, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qvista")):
            for alias in node.names:
                if is_private(alias.name):
                    hits.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module in (None, "qvista") and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            hits.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert not hits, f"private names used outside their module: {hits}"


def is_package_import(node: ast.AST) -> bool:
    """An import of a qvista module, relative or absolute."""
    if isinstance(node, ast.ImportFrom):
        return bool(node.level) or (node.module or "").split(".")[0] == "qvista"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "qvista" for alias in node.names)
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    """No module imports a qvista module inside a function: there is no import
    cycle to break.  Lazy imports of slow third-party modules stay allowed."""
    hits = [
        f"{path.name}:{node.lineno} in {fn.name}"
        for fn in ast.walk(parse(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if is_package_import(node)
    ]
    assert not hits, f"function-level imports of qvista modules: {hits}"
