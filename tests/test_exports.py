"""The export lists that the per-layer benchmark metrics rely on: the layer
tracer wraps only functions named in a module's ``__all__`` and skips names
it cannot find, so a stale or dropped name would empty a metric silently.
And the declared runtime dependencies, which must be exactly the third-party
packages the sources import."""

import ast
import inspect
import pathlib
import re
import sys

import pytest

import ncfourier

LAYERS = ("groups", "nclp", "multipliers", "restriction", "transference", "liealg", "montecarlo")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_exists(layer):
    module = getattr(ncfourier, layer)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{layer}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_only_exported_functions():
    modules = {getattr(ncfourier, layer).__name__: layer for layer in LAYERS}
    stray = []
    for name, value in vars(ncfourier).items():
        if not inspect.isfunction(value) or name.startswith("_"):
            continue
        layer = modules.get(value.__module__)
        assert layer is not None, f"ncfourier.{name} comes from {value.__module__}"
        if name not in getattr(ncfourier, layer).__all__:
            stray.append(f"{layer}.{name}")
    assert not stray, f"re-exported but not in their module's __all__: {stray}"


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _third_party_imports(src: pathlib.Path) -> set[str]:
    """Top-level names of the absolute imports under ``src`` that are neither
    standard library nor the package itself."""
    names = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"ncfourier"}


def test_runtime_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
             for dep in declared}
    imported = _third_party_imports(ROOT / "src" / "ncfourier")
    assert imported == names, (
        f"undeclared: {sorted(imported - names)}, declared but unused: {sorted(names - imported)}")


# the modules that still form N x N regular matrices; the spectral layer
# computes every other Schatten norm on irreducible blocks
DENSE_MODULES = {"restriction.py", "transference.py"}


def test_only_the_dense_paths_use_regular_matrix():
    # groups.py defines it and the package re-exports it; any other module
    # that imports the name or reads it as an attribute is a dense path
    users = set()
    for path in (ROOT / "src" / "ncfourier").glob("*.py"):
        if path.name in ("groups.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = (isinstance(node, ast.alias) and node.name == "regular_matrix") or (
                isinstance(node, ast.Attribute) and node.attr == "regular_matrix")
            if named:
                users.add(path.name)
    assert users == DENSE_MODULES
