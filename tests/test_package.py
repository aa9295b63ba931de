"""Package hygiene: no dead top-level imports, no unreferenced private
functions or classes, no public name that only tests call, no dangling
script entries, declared dependencies that match what the package and its
tests import, no scipy on the import path, and scalar, tensor and type
checks written only in core."""

import ast
import importlib
import importlib.metadata
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "latentmix").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the package and the bench's program files: a bench test is no caller
CALLERS = MODULES + sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import and never loaded in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


def unreferenced_privates(path: Path) -> list[str]:
    """Module-level private functions and classes (_name) that nothing in
    the module refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in defined.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_definitions(path):
    assert unreferenced_privates(path) == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_script_entry_points_resolve():
    import tomllib

    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target} is not callable"


def third_party_imports(paths: list[Path]) -> set[str]:
    """Top-level names of the absolute imports in paths that are neither
    stdlib nor the package or one of the files themselves (conftest)."""
    local = {"latentmix"} | {path.stem for path in paths}
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names and name not in local}


def normalize(dist: str) -> str:
    return re.sub(r"[-_.]+", "-", dist).lower()


def owners(names: set[str]) -> dict[str, set[str]]:
    """Each import name with the normalized distributions that provide it."""
    dists = importlib.metadata.packages_distributions()
    return {name: {normalize(d) for d in dists.get(name, ())} for name in names}


def requirement_names(requirements: list[str]) -> set[str]:
    return {normalize(re.match(r"[A-Za-z0-9._-]+", req).group()) for req in requirements}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_dependencies_match_imports():
    import tomllib

    declared = requirement_names(tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"])
    imported = owners(third_party_imports(MODULES))
    undeclared = sorted(name for name, dists in imported.items() if not dists & declared)
    assert undeclared == [], "imported but not declared in [project] dependencies"
    unused = sorted(declared - set().union(*imported.values()))
    assert unused == [], "declared in [project] dependencies but imported by no module"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_test_imports_are_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = requirement_names(project["dependencies"] + project["optional-dependencies"]["test"])
    imported = owners(third_party_imports(TESTS))
    undeclared = sorted(name for name, dists in imported.items() if not dists & declared)
    assert undeclared == [], "imported by a test but declared in neither [project] dependencies nor the test extra"


def test_importing_the_package_loads_no_scipy():
    """scipy's import costs more than numpy's; no module may pull it in."""
    names = [f"latentmix.{path.stem}" for path in MODULES if path.stem != "__init__"]
    code = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(proc.stdout) == []


def test_error_classes_are_raised():
    """Every class in errors.py is raised somewhere in the package, so the
    taxonomy names no failure that cannot happen."""
    errors = ast.parse((ROOT / "src" / "latentmix" / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined - raised == set()


def public_definitions(path: Path) -> set[str]:
    """Public module-level functions and classes of a module, and the public
    methods of its classes."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
                )
    return names


def referenced_names(paths: list[Path]) -> set[str]:
    """Every identifier that paths use as a name, an attribute, an imported
    name or a string constant (check_method takes a method by its name)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_public_names_have_a_caller():
    """Every public function, class and method is used by the package or
    the bench's program files, so no public name is kept alive by its tests
    alone, the bench's own tests among them."""
    defined = set().union(*(public_definitions(path) for path in MODULES))
    unreferenced = defined - referenced_names(CALLERS)
    assert unreferenced == set()


def constants_and_privates(path: Path) -> dict[str, int]:
    """Names bound by a module-level assignment, and the _-private
    module-level functions and classes and methods of a module, with the
    line of each definition."""
    defined = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            items = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
            defined.update(
                (item.name, item.lineno)
                for item in items
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and item.name.startswith("_")
            )
    return {name: line for name, line in defined.items() if not name.startswith("__")}


def loaded_names(paths: list[Path]) -> set[str]:
    """Every identifier that paths read, as a name or an attribute in Load
    context, outside the body of a function or class of that name."""
    names = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in enclosing:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return names


def test_constants_and_private_names_are_read():
    """Every module-level constant and every _-private function, class and
    method is read by the package or the bench's program files, somewhere
    other than its own definition, so none is left behind once its last
    reader goes."""
    read = loaded_names(CALLERS)
    unread = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in constants_and_privates(path).items()
        if name not in read
    ]
    assert unread == []


# the messages of core.check_level, core.check_real, and core.check_type for an rng
SCALAR_CHECK_PHRASES = ("must lie in", "must be finite", "must be a number", "must be an integer", "must be a RandomSource")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_scalar_checks_live_in_core(path):
    """A scalar parameter is checked by check_level or check_real, and an
    rng by check_type, so no other module writes one of their messages by
    hand."""
    text = path.read_text()
    assert [phrase for phrase in SCALAR_CHECK_PHRASES if phrase in text] == []


# the messages of core.check_latent, core.as_real_array and core.check_mask
TENSOR_CHECK_PHRASES = ("must be a nonempty", "values must be exactly 0 or 1", "must be a real array")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_tensor_checks_live_in_core(path):
    """A latent, a latent stack or a mask is checked by check_latent or
    check_mask, so no other module writes one of their messages by hand."""
    text = path.read_text()
    assert [phrase for phrase in TENSOR_CHECK_PHRASES if phrase in text] == []


def hand_written_type_checks(path: Path) -> list[str]:
    """Lines that raise ParameterError with a message formatting
    type(...).__name__ or saying "must have a callable": the messages of
    core.check_type and core.check_method."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ParameterError"
        and re.search(r"type\(.*\)\.__name__|must have a callable", ast.unparse(node.exc))
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_type_checks_live_in_core(path):
    """A wrong-typed argument is rejected by check_type or check_method, so
    no other module raises ParameterError with one of their messages."""
    assert hand_written_type_checks(path) == []
