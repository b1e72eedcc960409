import importlib
import pkgutil

import stftlab


def test_exported_and_all_names_resolve():
    assert set(stftlab.__all__) == set(stftlab._EXPORTS) | {"__version__"}
    for name, module in stftlab._EXPORTS.items():
        assert getattr(stftlab, name) is getattr(
            importlib.import_module(f"stftlab.{module}"), name)
    for info in pkgutil.iter_modules(stftlab.__path__):
        mod = importlib.import_module(f"stftlab.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"stftlab.{info.name}.{name}"
