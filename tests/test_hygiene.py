"""Static scan of the package for unused imports, orphaned private helpers,
public names, class members, defaulted parameters and defaulted dataclass
fields only tests reach, and private names reached across modules."""

import ast
from collections import Counter
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

# class members that no module reads and that stay for the tests
TEST_MEMBERS = {
    "NaturalGeodesic.tiles": "the output of the natural_geodesic oracle",
}

# defaulted parameters that no call sets and no benchmark hook reads
UNSET_DEFAULTS = {
    "proximity.dynamical_checks.exact_image": "the paper's exact-image shift condition, "
                                              "which no report shows yet",
    "cli.main.argv": "the console entry point",
    "boundary.natural_geodesic.tie_break": "an oracle's choice of ray",
}

# defaulted dataclass fields that no constructor call or replace sets
UNSET_FIELDS: dict[str, str] = {}


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


# the only modules that may import the sphere raster: the metric core stays
# off it, so deleting the raster touches no other module
RASTER_IMPORTERS = {"julia.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_dynamical_front_imports_the_raster(path):
    hits = [
        node.lineno for node in ast.walk(parse(path))
        if is_package_import(node) and "spheregrid" in ast.unparse(node)
    ]
    assert path.name in RASTER_IMPORTERS or not hits, (
        f"{path.name} imports spheregrid at lines {hits}; only {sorted(RASTER_IMPORTERS)} may"
    )


def attribute_reads(node: ast.AST) -> Counter:
    """How often each attribute name is read (loaded) under ``node``."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def class_members(tree: ast.Module):
    """(class name, member name, node) for every method, property and
    annotated field of each class in ``tree``; dunders are left out."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name, node


def test_class_members_are_read():
    """Every method, property and annotated field of a class in the package
    is read as an attribute outside its own definition, by a package module
    or a perfbench script, unless it is one of the TEST_MEMBERS.  Reads are
    matched by name, whatever object they are read from."""
    package = [parse(p) for p in MODULES]
    reads = sum((attribute_reads(t) for t in package + [parse(p) for p in BENCH_MODULES]),
                Counter())
    unread = {
        f"{cls}.{name}" for tree in package for cls, name, node in class_members(tree)
        if reads[name] <= attribute_reads(node)[name]
    }
    only_tests = sorted(unread - TEST_MEMBERS.keys())
    assert not only_tests, f"class members only tests read: {only_tests}"
    stale = sorted(TEST_MEMBERS.keys() - unread)
    assert not stale, f"test members that a module now reads: {stale}"


def called_name(call: ast.Call) -> str | None:
    """The name a call goes by: ``f`` for ``f(...)`` and ``obj.f(...)``."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def hook_reads() -> dict[str, set[str]]:
    """Per function that a perfbench span wraps, the argument names its hooks
    read from the bound arguments (``a["name"]`` in perfbench/spans.py)."""
    tree = parse(PACKAGE.parents[1] / "perfbench" / "spans.py")
    hooks = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reads: dict[str, set[str]] = {}
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and called_name(call) == "SpanSpec":
            wrapped = call.args[1].value.rpartition(".")[2]
            for kw in call.keywords:
                hook = hooks.get(kw.value.id) if isinstance(kw.value, ast.Name) else kw.value
                reads.setdefault(wrapped, set()).update(
                    n.slice.value for n in ast.walk(hook)
                    if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
                )
    return reads


def defaulted_parameters(path: Path):
    """(``module.function.param``, the name calls use, the parameter, its
    index among the positional arguments a call passes or None) for each
    defaulted parameter of each def in ``path``.  A class is called by its
    own name for ``__init__``."""
    tree = parse(path)
    owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        called = owner[id(fn)] if fn.name == "__init__" else fn.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield f"{path.stem}.{fn.name}.{arg.arg}", called, arg.arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{path.stem}.{fn.name}.{arg.arg}", called, arg.arg, None


def sets_parameter(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, through ``**kwargs``, or
    at ``index`` among its positional arguments (or through ``*args``)."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_defaulted_parameters_are_set():
    """Every defaulted parameter of a def in the package is set by some call
    in a package module or a perfbench script, or read by name by a perfbench
    hook, unless it is one of the UNSET_DEFAULTS.  A function that a dict
    display holds as a value (a dispatch table, like the fixture builders)
    is called through it, so its parameters are not checked."""
    trees = [parse(p) for p in MODULES + BENCH_MODULES]
    calls: dict[str, list[ast.Call]] = {}
    tabled = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(called_name(node), []).append(node)
            elif isinstance(node, ast.Dict):
                tabled |= {v.id for v in node.values if isinstance(v, ast.Name)}
    hooked = hook_reads()
    unset = {
        name
        for path in MODULES
        for name, called, param, index in defaulted_parameters(path)
        if called not in tabled
        and param not in hooked.get(called, ())
        and not any(sets_parameter(c, param, index) for c in calls.get(called, ()))
    }
    only_tests = sorted(unset - UNSET_DEFAULTS.keys())
    assert not only_tests, f"defaulted parameters that no call sets: {only_tests}"
    stale = sorted(UNSET_DEFAULTS.keys() - unset)
    assert not stale, f"unset defaults that a call now sets: {stale}"


def decorator_name(node: ast.expr) -> str | None:
    """The name a decorator goes by: ``dataclass`` for ``@dataclass``,
    ``@dataclass(frozen=True)`` and ``@dataclasses.dataclass``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def init_fields(cls: ast.ClassDef):
    """(field name, whether it has a default) for each ``__init__`` field of
    a dataclass, in order: annotated class attributes, less ``ClassVar``s and
    ``field(init=False)`` ones."""
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(node.annotation):
            continue
        value = node.value
        if isinstance(value, ast.Call) and called_name(value) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            yield node.target.id, "default" in kw or "default_factory" in kw
        else:
            yield node.target.id, value is not None


def dataclass_defaults(path: Path):
    """(``Class.field``, class name, field, its index among the positional
    arguments of the constructor) for each defaulted ``__init__`` field of
    each dataclass in ``path``."""
    for cls in ast.walk(parse(path)):
        if isinstance(cls, ast.ClassDef) and any(
                decorator_name(d) == "dataclass" for d in cls.decorator_list):
            for i, (name, defaulted) in enumerate(init_fields(cls)):
                if defaulted:
                    yield f"{cls.name}.{name}", cls.name, name, i


def test_dataclass_fields_are_set():
    """Every defaulted ``__init__`` field of a dataclass in the package is set
    by a constructor call in a package module or a perfbench script (by
    keyword, by position, or as ``cls(...)`` inside the class) or by a
    ``dataclasses.replace``, unless it is one of the UNSET_FIELDS.  A field
    that only tests set is a knob: it becomes a class constant, or
    ``field(init=False)`` when it is state."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in [parse(p) for p in MODULES + BENCH_MODULES]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(called_name(node), []).append(node)
            if isinstance(node, ast.ClassDef):
                calls.setdefault(node.name, []).extend(
                    c for c in ast.walk(node)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "cls"
                )
    replaced = calls.get("replace", [])
    unset = {
        name
        for path in MODULES
        for name, cls, field, index in dataclass_defaults(path)
        if not any(sets_parameter(c, field, index) for c in calls.get(cls, ()))
        and not any(sets_parameter(c, field, None) for c in replaced)
    }
    only_tests = sorted(unset - UNSET_FIELDS.keys())
    assert not only_tests, f"defaulted dataclass fields that no constructor sets: {only_tests}"
    stale = sorted(UNSET_FIELDS.keys() - unset)
    assert not stale, f"unset fields that a constructor now sets: {stale}"


# the calls that open, read or write a file; ``load`` and ``dump`` are matched
# on any object, so ``np.load`` and ``pickle.dump`` count too
FILE_CALLS = {"open", "load", "dump"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cli_touches_files(path):
    """Only cli.py opens, reads, writes or hashes a file: the library modules
    take and give plain data, so the file format and the input hashes of the
    manifests live in one module."""
    hits = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Call) and called_name(node) in FILE_CALLS:
            hits.append(f"{path.name}:{node.lineno} calls {ast.unparse(node.func)}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "hashlib" in ast.unparse(node):
            hits.append(f"{path.name}:{node.lineno} imports hashlib")
    assert path.name == "cli.py" or not hits, f"file access outside cli.py: {hits}"
