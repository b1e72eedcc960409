import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import stftlab

ROOT = Path(__file__).resolve().parent.parent


def _public_names() -> set:
    """The package's public API. The leading underscore is its only
    declaration: every top-level def, class or assignment (plain or
    annotated) of every module whose name has no leading underscore.
    Imports define nothing."""
    names = set()
    for path in (ROOT / "src" / "stftlab").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _public_members() -> set:
    """"Class.name" for every public method and property of the classes
    defined in the package's modules; dataclass fields have their own gate,
    test_every_dataclass_field_is_read."""
    members = set()
    for info in pkgutil.iter_modules(stftlab.__path__):
        mod = importlib.import_module(f"stftlab.{info.name}")
        for cname, cls in vars(mod).items():
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for name, attr in vars(cls).items():
                if not name.startswith("_") and (inspect.isfunction(attr) or
                        isinstance(attr, (property, classmethod,
                                          staticmethod))):
                    members.add(f"{cname}.{name}")
    return members


def _references() -> set:
    """Every name read or attribute taken in the package and the benchmark,
    plus the names the benchmark's tracer wraps (its TARGETS strings).
    Definitions and imports are not references, and neither is a use
    inside a definition of the same name (recursion, or a method that
    forwards to its namesake on a part)."""
    seen = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            seen.update({node.attr} - inside)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            seen.update(c.value.split(".")[0] for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    files = [*(ROOT / "src" / "stftlab").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    for path in files:
        visit(ast.parse(path.read_text()), frozenset())
    return seen


def test_package_binds_no_public_name_but_its_submodules():
    """A public name has one path, stftlab.<module>.<name>: the package
    neither binds nor lazily resolves any name of its own."""
    submodules = {info.name for info in pkgutil.iter_modules(stftlab.__path__)}
    bound = {name for name in vars(stftlab) if not name.startswith("_")}
    assert bound <= submodules, f"package-level names: {sorted(bound - submodules)}"
    resolved = {name for name in _public_names() - submodules
                if hasattr(stftlab, name)}
    assert not resolved, f"resolved through the package: {sorted(resolved)}"
    assert not hasattr(stftlab, "__all__")


def test_public_names_come_from_every_module():
    """No module keeps a second list of its API, and the gate reads the
    definitions of all of them, the command line and io included."""
    for info in pkgutil.iter_modules(stftlab.__path__):
        mod = importlib.import_module(f"stftlab.{info.name}")
        assert not hasattr(mod, "__all__"), f"stftlab.{info.name}.__all__"
    names = _public_names()
    assert {"main", "load", "SplitMix64", "POSITIVE", "MAX_COUNT",
            "BOUNDARY_DECAY_TOL", "Grid1D", "run"} <= names
    assert "annotations" not in names and "np" not in names


def test_every_public_name_has_a_caller():
    unused = _public_names() - _references()
    assert not unused, f"public names nothing in src or perfbench calls: " \
                       f"{sorted(unused)}"


def test_every_public_method_has_a_caller():
    members = _public_members()
    assert "Sampled.restrict" in members and "Grid1D.dx" in members
    refs = _references()
    unused = {m for m in members if m.split(".")[1] not in refs}
    assert not unused, f"public methods and properties nothing in src or " \
                       f"perfbench calls: {sorted(unused)}"


def _dataclass_fields() -> dict:
    """{"Class.field": field name} for every field of every dataclass
    defined in the package's modules."""
    fields = {}
    for info in pkgutil.iter_modules(stftlab.__path__):
        mod = importlib.import_module(f"stftlab.{info.name}")
        for cname, cls in vars(mod).items():
            if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and dataclasses.is_dataclass(cls)):
                for f in dataclasses.fields(cls):
                    fields[f"{cname}.{f.name}"] = f.name
    return fields


def _field_reads(fields: dict) -> set:
    """Every attribute the package and the benchmark read: `obj.name` in a
    load, or getattr(obj, "name") with a constant name. A read inside a
    class's own __post_init__ of one of that class's fields is its
    constructor check, not a use, and does not count."""
    own = {}
    for qual, name in fields.items():
        own.setdefault(qual.split(".")[0], set()).add(name)
    seen = set()

    def visit(node, cls, checking):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            checking = own.get(cls, set()) if node.name == "__post_init__" \
                else set()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            seen.update({node.attr} - checking)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            seen.add(node.args[1].value)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, checking)

    for path in [*(ROOT / "src" / "stftlab").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        visit(ast.parse(path.read_text()), None, set())
    return seen


def test_every_dataclass_field_is_read():
    fields = _dataclass_fields()
    assert "CheegerReport.witness" in fields and "Signal.values" in fields
    reads = _field_reads(fields)
    unread = sorted(q for q, name in fields.items() if name not in reads)
    assert not unread, f"dataclass fields nothing in src or perfbench " \
                       f"reads: {unread}"


def _unread_imports(tree: ast.AST) -> list:
    """Names a module imports but never reads; __future__ imports are exempt.
    A dotted `import a.b` binds `a`; a name read in a nested scope counts."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_every_import_is_read():
    found = []
    for folder in (ROOT / "src" / "stftlab", ROOT / "tests", ROOT / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            for line, name in _unread_imports(ast.parse(path.read_text())):
                found.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not found, f"imported but never read: {found}"


def test_sampled_norms_go_through_lqnorm():
    """Outside grids and norms, the L^p norm of a sampled object is an
    LqNorm call: no module passes `<obj>.values` to riemann_lp itself.
    riemann_lp stays the array kernel of the norm objects."""
    found = []
    for path in sorted((ROOT / "src" / "stftlab").glob("*.py")):
        if path.name in ("grids.py", "norms.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None)) == "riemann_lp"
                    and node.args and isinstance(node.args[0], ast.Attribute)
                    and node.args[0].attr == "values"):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"riemann_lp of a sampled object's values: {found}"
