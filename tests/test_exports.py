"""The export lists that the per-layer benchmark metrics rely on: the layer
tracer wraps only functions named in a module's ``__all__`` and skips names
it cannot find, so a stale or dropped name would empty a metric silently."""

import inspect

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
