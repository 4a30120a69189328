"""Checks on the package source itself."""

import ast
import importlib.util
from pathlib import Path

import protofed
from protofed import cli, federation

SRC = Path(protofed.__file__).resolve().parent


def test_every_module_level_name_has_a_caller_in_src():
    """Each module-level def and class under src/protofed is referenced by
    src code: a name, an attribute or an import. Comments and docstrings do
    not count, and neither do the tests, so a function that only tests call
    fails here."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not unused, f"no caller in src: {', '.join(unused)}"


def test_only_cli_imports_json():
    """cli writes every JSON artifact, so no other module imports json."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                importers.add(path.name)
    assert importers == {"cli.py"}


def test_every_benchmark_target_resolves():
    """protobench wraps each TARGETS entry by name on its module; a name the
    program no longer defines would silently read as an absent span. Only
    the two already absent are allowed."""
    path = SRC.parents[1] / "protobench" / "layers.py"
    spec = importlib.util.spec_from_file_location("protobench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    modules = {"federation": federation, "cli": cli}
    missing = {f"{namespace}.{attr}" for namespace, attr, *_ in layers.TARGETS
               if not hasattr(modules[namespace], attr)}
    unexpected = missing - {"federation.initial_mean", "federation.local_update"}
    assert not unexpected, f"benchmark targets the program lacks: {', '.join(sorted(unexpected))}"
