"""Every module under ``src/repro`` must be reachable from the package's entry points.

The walk follows static imports only — ``import`` and ``from ... import``
statements anywhere in a module, function-level (lazy) imports included — from
``repro.cli`` and ``repro``.  A module nothing imports is dead code; this guard
keeps a deleted substrate from coming back unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENTRY_POINTS = ("repro.cli", "repro")


def module_files(src=SRC):
    """Map every module name under ``src/repro`` to its source file."""
    modules = {}
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_modules(name, path, modules):
    """The repro modules one source file imports, with their parent packages."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module
            found.add(target)
            # ``from package import submodule`` imports the submodule too.
            found.update(f"{target}.{alias.name}" for alias in node.names)
    reached = set()
    for target in found:
        parts = target.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return {module for module in reached if module in modules}


def reachable(modules, entry_points=ENTRY_POINTS):
    seen = set()
    stack = list(entry_points)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(imported_modules(name, modules[name], modules) - seen)
    return seen


def test_every_module_is_reachable_from_the_entry_points():
    modules = module_files()
    unreached = sorted(set(modules) - reachable(modules))
    assert unreached == [], f"modules no entry point imports: {unreached}"


def write_package(root, files):
    """Write a throwaway ``repro`` package: ``{"a/b.py": source}`` under ``root/repro``."""
    for relative, source in files.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return module_files(root)


def test_walk_flags_a_module_nothing_imports(tmp_path):
    modules = write_package(tmp_path, {
        "__init__.py": "",
        "cli.py": "import repro.used\n",
        "used.py": "",
        "dead.py": "import repro.used\n",
    })
    assert set(modules) - reachable(modules) == {"repro.dead"}


def test_function_level_imports_reach_their_module(tmp_path):
    modules = write_package(tmp_path, {
        "__init__.py": "",
        "cli.py": "def main():\n    from repro.lazy import run\n    return run()\n",
        "lazy.py": "def run():\n    return 0\n",
    })
    assert reachable(modules) == set(modules)


def test_relative_imports_resolve_against_the_package(tmp_path):
    modules = write_package(tmp_path, {
        "__init__.py": "from .pkg import inner\n",
        "cli.py": "",
        "pkg/__init__.py": "",
        "pkg/inner.py": "from . import sibling\nfrom ..top import value\n",
        "pkg/sibling.py": "",
        "top.py": "value = 1\n",
    })
    assert reachable(modules) == set(modules)


def test_importing_a_package_does_not_reach_its_submodules(tmp_path):
    modules = write_package(tmp_path, {
        "__init__.py": "import repro.pkg\n",
        "cli.py": "",
        "pkg/__init__.py": "",
        "pkg/orphan.py": "",
    })
    assert set(modules) - reachable(modules) == {"repro.pkg.orphan"}
