import importlib
import pkgutil

import pytest

import shrinker_lab as sl

MODULES = [
    info.name
    for info in pkgutil.iter_modules(sl.__path__)
    if hasattr(importlib.import_module(f"shrinker_lab.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    # a name left in __all__ or in the package's re-exports after its
    # definition is deleted fails here, not at a caller's import
    mod = importlib.import_module(f"shrinker_lab.{name}")
    for export in mod.__all__:
        assert hasattr(mod, export), f"{name}.__all__ names missing {export!r}"
        if export in vars(sl):
            assert getattr(sl, export) is getattr(mod, export), f"shrinker_lab.{export} is not {name}.{export}"
