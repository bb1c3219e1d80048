"""The package's public names."""

import importlib
import pkgutil

import latentcorr


def test_every_name_in_an_all_list_exists():
    names = ["latentcorr"] + [f"latentcorr.{m.name}" for m in pkgutil.iter_modules(latentcorr.__path__)]
    modules = [importlib.import_module(name) for name in names]
    assert len(modules) > 8
    assert [f"{m.__name__}.{n}" for m in modules for n in getattr(m, "__all__", ()) if not hasattr(m, n)] == []
