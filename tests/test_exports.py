import importlib
import pkgutil

import cavityswap


def test_every_exported_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(cavityswap.__path__)]
    modules = [cavityswap] + [importlib.import_module(f"cavityswap.{name}") for name in names]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}, which do not exist"
