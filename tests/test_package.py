import importlib
import pkgutil

import rotquant


def test_every_exported_name_resolves():
    """Each ``__all__`` entry of the package and of its modules names an
    attribute that exists, so a deleted name cannot stay exported."""
    for info in pkgutil.iter_modules(rotquant.__path__):
        module = importlib.import_module(f"rotquant.{info.name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
    missing = [n for n in rotquant.__all__ if not hasattr(rotquant, n)]
    assert not missing, missing
