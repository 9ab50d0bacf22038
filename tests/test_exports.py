"""Every name a module of ``fdl`` lists in ``__all__`` exists, so
``from fdl.<module> import *`` keeps working when public names are removed."""

import importlib
import pkgutil

import pytest

import fdl

# ``__main__`` runs the command line on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(fdl.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_existing_names(name):
    module = importlib.import_module(f"fdl.{name}")
    listed = getattr(module, "__all__", ())
    assert len(set(listed)) == len(listed), f"fdl.{name}.__all__ lists a name twice"
    missing = [n for n in listed if not hasattr(module, n)]
    assert not missing, f"fdl.{name}.__all__ lists missing names {missing}"
